package gen

import "fmt"

// Name pools for the supporting entities. Real-world names are used where
// the paper's predicates reference real-world kinds (countries, subjects);
// bulk populations use generated names.

var countryPool = []string{
	"Germany", "USA", "Russia", "UK", "France", "China", "Italy", "Spain",
	"Canada", "Japan", "Brazil", "India", "Mexico", "Australia", "Sweden",
	"Norway", "Poland", "Greece", "Turkey", "Egypt", "Kenya", "Nigeria",
	"Argentina", "Chile", "Peru", "Austria", "Belgium", "Portugal",
	"Netherlands", "Switzerland",
}

var subjectPool = []string{
	"Law", "Political Science", "Economics", "Physics", "History",
	"Philosophy", "Drama", "Film", "Literature", "Medicine",
	"Engineering", "Mathematics",
}

var genrePool = []string{
	"Drama", "Comedy", "Thriller", "Action", "Romance", "ScienceFiction",
	"Fantasy", "Documentary", "Crime", "Horror", "Animation", "Western",
}

var partyPool = []string{
	"CDU", "SPD", "Democratic Party", "Republican Party", "United Russia",
	"Conservative Party", "Labour Party", "Parti Socialiste",
	"Les Républicains", "Communist Party", "Partito Democratico",
	"Forza Italia", "PP", "PSOE", "Liberal Party", "New Komeito",
	"Workers' Party", "BJP", "INC", "PRI", "PAN", "Green Party",
	"Libertarian Party", "Pirate Party",
}

var prizePool = []string{
	"Academy Award for Best Actor", "Academy Award for Best Actress",
	"Golden Globe Award", "BAFTA Award", "Screen Actors Guild Award",
	"Palme d'Or", "Silver Bear", "Saturn Award", "MTV Movie Award",
	"People's Choice Award", "Critics' Choice Award", "Emmy Award",
	"Tony Award", "Grammy Award", "Nobel Peace Prize", "Sakharov Prize",
	"Presidential Medal of Freedom", "Charlemagne Prize", "Cesar Award",
	"Goya Award", "European Film Award", "Independent Spirit Award",
	"Annie Award", "Hugo Award", "Nebula Award",
}

var summitPool = []string{
	"G7 Summit 2014", "G20 Summit 2014", "G7 Summit 2015",
	"G20 Summit 2015", "UN General Assembly 2015", "NATO Summit 2014",
	"Climate Conference 2015", "World Economic Forum 2016",
}

var orgPool = []string{
	"United Nations", "G20", "NATO", "European Council", "African Union",
	"OECD", "World Bank", "IMF",
}

// cities generates n city names.
func cities(n int) []string {
	base := []string{
		"Berlin", "Hamburg", "Washington", "Chicago", "Moscow", "London",
		"Paris", "Beijing", "Rome", "Madrid", "Ottawa", "Tokyo",
		"Brasilia", "Delhi", "Mexico City", "Canberra", "Stockholm",
		"Oslo", "Warsaw", "Athens", "Ankara", "Cairo", "Nairobi", "Lagos",
		"Buenos Aires", "Santiago", "Lima", "Vienna", "Brussels", "Lisbon",
	}
	out := make([]string, 0, n)
	out = append(out, base...)
	for i := len(base); i < n; i++ {
		out = append(out, fmt.Sprintf("City %03d", i))
	}
	return out[:min(n, len(out))]
}

// numbered generates n names with a prefix: "Movie 0042" etc.
func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s %04d", prefix, i)
	}
	return out
}
