package ntriples

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadTSV(t *testing.T) {
	in := "merkel\tleaderOf\tgermany\nobama\tleaderOf\tusa\n"
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []Statement{
		{"merkel", "leaderOf", "germany"},
		{"obama", "leaderOf", "usa"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d statements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("statement %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReadNT(t *testing.T) {
	in := `<merkel> <leaderOf> <germany> .
<merkel> <studied> "physics" .
`
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d statements", len(got))
	}
	if got[0] != (Statement{"merkel", "leaderOf", "germany"}) {
		t.Fatalf("statement 0 = %v", got[0])
	}
	if got[1] != (Statement{"merkel", "studied", "physics"}) {
		t.Fatalf("statement 1 = %v", got[1])
	}
}

func TestReadMixedAndComments(t *testing.T) {
	in := `# a comment

merkel	leaderOf	germany
<obama> <leaderOf> <usa> .
`
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d statements, want 2", len(got))
	}
}

func TestReadBareWords(t *testing.T) {
	in := "merkel leaderOf germany .\n"
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != (Statement{"merkel", "leaderOf", "germany"}) {
		t.Fatalf("got %v", got[0])
	}
}

func TestReadEscapedLiteral(t *testing.T) {
	in := `<a> <note> "line1\nline2\t\"quoted\"" .`
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0].O != "line1\nline2\t\"quoted\"" {
		t.Fatalf("object = %q", got[0].O)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"missing field tsv", "a\tb\n"},
		{"empty field tsv", "a\t\tc\n"},
		{"unterminated iri", "<a <b> <c> .\n"},
		{"unterminated literal", `<a> <b> "oops .` + "\n"},
		{"missing term", "<a> <b>\n"},
		{"trailing garbage", "<a> <b> <c> <d> .\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReader(strings.NewReader(tc.in)).ReadAll()
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ParseError", err)
			}
			if pe.Line != 1 {
				t.Fatalf("Line = %d, want 1", pe.Line)
			}
			if pe.Error() == "" {
				t.Fatal("empty error text")
			}
		})
	}
}

func TestReadEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestWriterRoundTripTSV(t *testing.T) {
	roundTrip(t, FormatTSV)
}

func TestWriterRoundTripNT(t *testing.T) {
	roundTrip(t, FormatNT)
}

func roundTrip(t *testing.T, f Format) {
	t.Helper()
	stmts := []Statement{
		{"merkel", "leaderOf", "germany"},
		{"obama", "studied", "law"},
		{"pitt", "actedIn", "troy"},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, f)
	for _, st := range stmts {
		if err := w.Write(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(stmts) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(stmts))
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(stmts) {
		t.Fatalf("round trip lost statements: %d vs %d", len(got), len(stmts))
	}
	for i := range stmts {
		if got[i] != stmts[i] {
			t.Fatalf("statement %d = %v, want %v", i, got[i], stmts[i])
		}
	}
}

// Property: any statement whose terms avoid the delimiters survives a TSV
// round trip.
func TestRoundTripProperty(t *testing.T) {
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			switch r {
			case '\t', '\n', '\r':
				return '_'
			}
			return r
		}, s)
		s = strings.TrimSpace(s)
		if s == "" || strings.HasPrefix(s, "#") {
			return "x"
		}
		return s
	}
	f := func(s, p, o string) bool {
		st := Statement{S: clean(s), P: clean(p), O: clean(o)}
		var buf bytes.Buffer
		w := NewWriter(&buf, FormatTSV)
		if w.Write(st) != nil || w.Flush() != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		return err == nil && len(got) == 1 && got[0] == st
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadTSV(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		sb.WriteString("subject\tpredicate\tobject\n")
	}
	data := sb.String()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(strings.NewReader(data))
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}
