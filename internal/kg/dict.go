package kg

import "fmt"

// noID is what dict.lookup returns for a string never interned. A dict
// refuses to grow to it, so it is never a valid ID.
const noID = ^uint32(0)

// dict interns strings as dense IDs in insertion order starting at 0, so
// an ID indexes slices sized by len. Not safe for concurrent mutation;
// concurrent readers are fine once building is done.
type dict struct {
	byStr map[string]uint32
	byID  []string
}

func newDict(n int) *dict {
	return &dict{byStr: make(map[string]uint32, n), byID: make([]string, 0, n)}
}

// put interns s and returns its ID, assigning the next one if s is new.
func (d *dict) put(s string) uint32 {
	if id, ok := d.byStr[s]; ok {
		return id
	}
	if len(d.byID) == int(noID) {
		panic(fmt.Sprintf("kg: more than %d names", noID))
	}
	id := uint32(len(d.byID))
	d.byStr[s] = id
	d.byID = append(d.byID, s)
	return id
}

// lookup returns the ID of s, or noID if s was never interned.
func (d *dict) lookup(s string) uint32 {
	if id, ok := d.byStr[s]; ok {
		return id
	}
	return noID
}

// name returns the string of id; it panics if id was never assigned.
func (d *dict) name(id uint32) string { return d.byID[id] }

func (d *dict) len() int { return len(d.byID) }
