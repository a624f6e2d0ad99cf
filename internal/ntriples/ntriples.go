// Package ntriples reads and writes knowledge-graph triples in two
// line-oriented text formats:
//
//   - a pragmatic N-Triples subset: `<s> <p> <o> .` — IRIs in angle
//     brackets, object may also be a double-quoted literal, trailing dot
//     optional, `#` starts a comment;
//   - TSV: `s<TAB>p<TAB>o`, the format used by the YAGO 2.5 dumps the paper
//     loads.
//
// The reader auto-detects the format per line, so mixed files load fine.
// Both formats identify terms by their string form; the caller interns them
// (notable.LoadGraph feeds a Reader to kg.ReadTriples).
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Statement is a parsed (subject, predicate, object) string triple.
type Statement struct {
	S, P, O string
}

// ParseError describes a malformed input line.
type ParseError struct {
	Line int    // 1-based line number
	Text string // offending line
	Msg  string // what went wrong
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Reader streams statements from an input.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader returns a Reader over r. Lines may be up to 1 MiB long.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{sc: sc}
}

// Read returns the next statement, io.EOF at end of input, or a *ParseError
// for malformed lines.
func (r *Reader) Read() (Statement, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		st, err := parseLine(line, r.line)
		if err != nil {
			return Statement{}, err
		}
		return st, nil
	}
	if err := r.sc.Err(); err != nil {
		return Statement{}, err
	}
	return Statement{}, io.EOF
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]Statement, error) {
	var out []Statement
	for {
		st, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, st)
	}
}

func parseLine(line string, lineno int) (Statement, error) {
	if strings.ContainsRune(line, '\t') {
		parts := strings.Split(line, "\t")
		if len(parts) < 3 {
			return Statement{}, &ParseError{Line: lineno, Text: line, Msg: "want 3 tab-separated fields"}
		}
		s := strings.TrimSpace(parts[0])
		p := strings.TrimSpace(parts[1])
		o := strings.TrimSpace(parts[2])
		if s == "" || p == "" || o == "" {
			return Statement{}, &ParseError{Line: lineno, Text: line, Msg: "empty field"}
		}
		return Statement{S: s, P: p, O: o}, nil
	}
	// N-Triples subset.
	rest := strings.TrimSuffix(strings.TrimSpace(line), ".")
	rest = strings.TrimSpace(rest)
	s, rest, err := parseTerm(rest, line, lineno)
	if err != nil {
		return Statement{}, err
	}
	p, rest, err := parseTerm(rest, line, lineno)
	if err != nil {
		return Statement{}, err
	}
	o, rest, err := parseTerm(rest, line, lineno)
	if err != nil {
		return Statement{}, err
	}
	if strings.TrimSpace(rest) != "" {
		return Statement{}, &ParseError{Line: lineno, Text: line, Msg: "trailing garbage"}
	}
	return Statement{S: s, P: p, O: o}, nil
}

// parseTerm consumes one term — `<iri>`, `"literal"`, or a bare word — from
// the front of rest.
func parseTerm(rest, line string, lineno int) (term, remainder string, err error) {
	rest = strings.TrimLeft(rest, " ")
	if rest == "" {
		return "", "", &ParseError{Line: lineno, Text: line, Msg: "missing term"}
	}
	switch rest[0] {
	case '<':
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return "", "", &ParseError{Line: lineno, Text: line, Msg: "unterminated IRI"}
		}
		return rest[1:end], rest[end+1:], nil
	case '"':
		// Scan for the closing quote, honoring backslash escapes.
		var b strings.Builder
		i := 1
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				b.WriteByte(unescape(rest[i+1]))
				i += 2
				continue
			}
			if c == '"' {
				return b.String(), rest[i+1:], nil
			}
			b.WriteByte(c)
			i++
		}
		return "", "", &ParseError{Line: lineno, Text: line, Msg: "unterminated literal"}
	default:
		end := strings.IndexByte(rest, ' ')
		if end < 0 {
			return rest, "", nil
		}
		return rest[:end], rest[end:], nil
	}
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	default:
		return c
	}
}

// Format selects the Writer's output format.
type Format int

const (
	// FormatTSV writes tab-separated subject/predicate/object lines.
	FormatTSV Format = iota
	// FormatNT writes `<s> <p> <o> .` lines with minimal escaping.
	FormatNT
)

// Writer streams statements to an output.
type Writer struct {
	w      *bufio.Writer
	format Format
	n      int
}

// NewWriter returns a Writer emitting the given format to w.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{w: bufio.NewWriter(w), format: format}
}

// Write emits one statement.
func (w *Writer) Write(st Statement) error {
	var err error
	switch w.format {
	case FormatNT:
		_, err = fmt.Fprintf(w.w, "<%s> <%s> <%s> .\n", st.S, st.P, st.O)
	default:
		_, err = fmt.Fprintf(w.w, "%s\t%s\t%s\n", st.S, st.P, st.O)
	}
	if err == nil {
		w.n++
	}
	return err
}

// Count returns the number of statements written.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }
