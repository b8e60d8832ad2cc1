// Package dagio serializes application DAGs as JSON so the command
// line tools (resgen, ressched), the server and external systems can
// exchange them.
//
// The format is deliberately minimal:
//
//	{
//	  "tasks": [{"name": "prep", "seq": 3600, "alpha": 0.1}, ...],
//	  "edges": [[0, 1], [0, 2], ...]
//	}
//
// Task IDs are the indices into the tasks array.
//
// Reading and writing are hand-written, without reflection: every
// schedule request carries one DAG, and the reflective encoding/json
// decode was a quarter of a small request's time. Both keep
// encoding/json's behaviour exactly — Parse accepts the documents a
// json.Decoder with DisallowUnknownFields accepts into the schema
// above and builds the same graph, and Write emits the bytes of a
// json.Encoder with a two-space indent. The reflective versions are
// kept in the package's tests as the oracles (oracle_test.go).
package dagio

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"resched/internal/dag"
	"resched/internal/model"
)

// Write serializes the graph as indented JSON, ending in a newline.
func Write(w io.Writer, g *dag.Graph) error {
	n := g.NumTasks()
	b := make([]byte, 0, 64+56*n+40*g.NumEdges())
	b = append(b, "{\n  \"tasks\": ["...)
	for i := 0; i < n; i++ {
		t := g.Task(i)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      "...)
		if t.Name != "" {
			b = append(b, `"name": `...)
			b = appendString(b, t.Name)
			b = append(b, ",\n      "...)
		}
		b = append(b, `"seq": `...)
		b = strconv.AppendInt(b, t.Seq, 10)
		b = append(b, ",\n      \"alpha\": "...)
		if math.IsNaN(t.Alpha) {
			return fmt.Errorf("dagio: task %d has alpha NaN", i)
		}
		b = appendFloat(b, t.Alpha)
		b = append(b, "\n    }"...)
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"edges\": "...)
	if g.NumEdges() == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		sep := false
		for i := 0; i < n; i++ {
			for _, s := range g.Successors(i) {
				if sep {
					b = append(b, ',')
				}
				sep = true
				b = append(b, "\n    [\n      "...)
				b = strconv.AppendInt(b, int64(i), 10)
				b = append(b, ",\n      "...)
				b = strconv.AppendInt(b, int64(s), 10)
				b = append(b, "\n    ]"...)
			}
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, "\n}\n"...)
	_, err := w.Write(b)
	return err
}

// appendFloat formats f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with
// the exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & become \u003c, \u003e and \u0026, invalid UTF-8
// becomes \ufffd, and U+2028 and U+2029 are escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Read reads a JSON graph to the end of r and parses it with Parse.
func Read(r io.Reader) (*dag.Graph, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	in, err := readAll(p.in[:0], r)
	p.in = in
	if err != nil {
		return nil, fmt.Errorf("dagio: %w", err)
	}
	return p.parse(in)
}

// readAll appends all of r to b, like io.ReadAll but into a reused
// buffer.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// Parse parses a JSON graph and validates it (acyclicity, edge bounds,
// task parameters). Bytes after the graph's closing brace are ignored,
// as a json.Decoder ignores what follows the first value. The graph
// shares no memory with data.
func Parse(data []byte) (*dag.Graph, error) {
	p := parsers.Get().(*parser)
	defer p.release()
	return p.parse(data)
}

// maxDepth is encoding/json's nesting limit: the top-level object is
// depth 1, and a container deeper than maxDepth is a syntax error.
const maxDepth = 10000

// rawTask is one task as the document states it. The name is
// names[nameOff:nameEnd] of the parser's name buffer.
type rawTask struct {
	nameOff, nameEnd int
	seq              model.Duration
	alpha            float64
}

// parser is the scanner's state and scratch, recycled through parsers
// so that a parse allocates only the graph. It decodes the way
// encoding/json decodes into dagio's schema, including its corners:
// keys match case-insensitively (bytes.EqualFold); null leaves a value
// as it was; an edge of fewer than two elements is zero-filled and
// elements past the second are syntax-checked and skipped; and a
// repeated key decodes into what the earlier one left — encoding/json
// reuses a slice's backing array, so the elements past the new length
// keep the values this document gave them. tasks and edges are that
// backing array (every element this document has written), nt and ne
// the current lengths. Because a later key can replace the tasks, the
// graph is built and checked only once the document has been read.
type parser struct {
	data  []byte
	pos   int
	tasks []rawTask
	nt    int
	edges [][2]int64
	ne    int
	names []byte
	key   []byte // an unquoted key
	in    []byte // Read's input
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

// maxPooled bounds the scratch a parser keeps between documents, in
// elements: one unusually large DAG should not stay resident.
const maxPooled = 1 << 16

func (p *parser) release() {
	p.data = nil
	if cap(p.tasks) > maxPooled || cap(p.edges) > maxPooled {
		p.tasks, p.edges = nil, nil
	}
	if cap(p.names) > maxPooled || cap(p.in) > 16*maxPooled {
		p.names, p.in = nil, nil
	}
	parsers.Put(p)
}

func (p *parser) parse(data []byte) (*dag.Graph, error) {
	p.data, p.pos = data, 0
	p.tasks, p.nt = p.tasks[:0], 0
	p.edges, p.ne = p.edges[:0], 0
	p.names = p.names[:0]
	switch p.next() {
	case '{':
		if err := p.graph(); err != nil {
			return nil, err
		}
	case 'n':
		// A top-level null decodes to the empty graph.
		if err := p.null(); err != nil {
			return nil, err
		}
	case 0:
		if p.pos == len(data) {
			return nil, fmt.Errorf("dagio: %w", io.EOF)
		}
		return nil, p.errSyntax()
	default:
		return nil, p.errType("the graph", "an object")
	}
	return p.build()
}

// build checks the tasks and adds them and the edges to a new graph,
// in the order and with the messages of the reflective reader.
func (p *parser) build() (*dag.Graph, error) {
	tasks := p.tasks[:p.nt]
	for i, t := range tasks {
		if t.seq < 0 {
			return nil, fmt.Errorf("dagio: task %d has negative seq %d", i, t.seq)
		}
		if t.alpha < 0 || t.alpha > 1 {
			return nil, fmt.Errorf("dagio: task %d has alpha %v outside [0,1]", i, t.alpha)
		}
	}
	var names string
	if len(p.names) > 0 {
		names = string(p.names)
	}
	g := dag.New(len(tasks))
	for _, t := range tasks {
		g.AddTask(dag.Task{Name: names[t.nameOff:t.nameEnd], Seq: t.seq, Alpha: t.alpha})
	}
	for i, e := range p.edges[:p.ne] {
		if int64(int(e[0])) != e[0] || int64(int(e[1])) != e[1] {
			return nil, fmt.Errorf("dagio: edge %d does not fit an int", i)
		}
		if err := g.AddEdge(int(e[0]), int(e[1])); err != nil {
			return nil, fmt.Errorf("dagio: %w", err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dagio: %w", err)
	}
	return g, nil
}

// graph decodes the top-level object; p.pos is at its '{'.
func (p *parser) graph() error {
	p.pos++
	if p.next() == '}' {
		p.pos++
		return nil
	}
	for {
		k, err := p.readKey()
		if err != nil {
			return err
		}
		switch graphField(k) {
		case 0:
			err = p.taskList()
		case 1:
			err = p.edgeList()
		default:
			err = fmt.Errorf("dagio: unknown field %q", k)
		}
		if err != nil {
			return err
		}
		if done, err := p.more('}'); done || err != nil {
			return err
		}
	}
}

// taskList decodes the value of "tasks" into p.tasks.
func (p *parser) taskList() error {
	switch p.next() {
	case 'n':
		p.tasks, p.nt = p.tasks[:0], 0
		return p.null()
	case '[':
	default:
		return p.errType("tasks", "an array")
	}
	p.pos++
	if p.next() == ']' {
		p.pos++
		p.tasks, p.nt = p.tasks[:0], 0
		return nil
	}
	for i := 0; ; i++ {
		if i == len(p.tasks) {
			p.tasks = append(p.tasks, rawTask{})
		}
		var err error
		switch p.next() {
		case 'n':
			err = p.null()
		case '{':
			err = p.task(&p.tasks[i])
		default:
			err = p.errType("a task", "an object")
		}
		if err != nil {
			return err
		}
		if done, err := p.more(']'); err != nil {
			return err
		} else if done {
			p.nt = i + 1
			return nil
		}
	}
}

// task decodes one task object into t; p.pos is at its '{'.
func (p *parser) task(t *rawTask) error {
	p.pos++
	if p.next() == '}' {
		p.pos++
		return nil
	}
	for {
		k, err := p.readKey()
		if err != nil {
			return err
		}
		switch taskField(k) {
		case 0:
			err = p.intSlot(&t.seq, "seq")
		case 1:
			err = p.floatSlot(&t.alpha)
		case 2:
			err = p.nameSlot(t)
		default:
			err = fmt.Errorf("dagio: unknown field %q", k)
		}
		if err != nil {
			return err
		}
		if done, err := p.more('}'); done || err != nil {
			return err
		}
	}
}

// edgeList decodes the value of "edges" into p.edges.
func (p *parser) edgeList() error {
	switch p.next() {
	case 'n':
		p.edges, p.ne = p.edges[:0], 0
		return p.null()
	case '[':
	default:
		return p.errType("edges", "an array")
	}
	p.pos++
	if p.next() == ']' {
		p.pos++
		p.edges, p.ne = p.edges[:0], 0
		return nil
	}
	for i := 0; ; i++ {
		if i == len(p.edges) {
			p.edges = append(p.edges, [2]int64{})
		}
		var err error
		switch p.next() {
		case 'n':
			err = p.null()
		case '[':
			err = p.edge(&p.edges[i])
		default:
			err = p.errType("an edge", "an array")
		}
		if err != nil {
			return err
		}
		if done, err := p.more(']'); err != nil {
			return err
		} else if done {
			p.ne = i + 1
			return nil
		}
	}
}

// edge decodes one edge array into e; p.pos is at its '['. Missing
// endpoints are zeroed and elements past the second skipped.
func (p *parser) edge(e *[2]int64) error {
	p.pos++
	k := 0
	if p.next() == ']' {
		p.pos++
	} else {
		for {
			var err error
			if k < len(e) {
				err = p.intSlot(&e[k], "edge endpoint")
			} else {
				err = p.skip(3) // inside the edge, itself at depth 3
			}
			if err != nil {
				return err
			}
			k++
			if done, err := p.more(']'); err != nil {
				return err
			} else if done {
				break
			}
		}
	}
	for ; k < len(e); k++ {
		e[k] = 0
	}
	return nil
}

// intSlot decodes an integer into *v. null leaves *v as it was; a
// number with a fraction or an exponent, or one outside int64, is an
// error, as encoding/json's strconv.ParseInt makes it.
func (p *parser) intSlot(v *int64, what string) error {
	c := p.next()
	if c == 'n' {
		return p.null()
	}
	if c != '-' && !isDigit(c) {
		return p.errType(what, "an integer")
	}
	// Fast path: at most 18 digits, no leading zero, and neither a
	// fraction nor an exponent after them.
	d, i := p.data, p.pos
	if c == '-' {
		i++
	}
	first := i
	var n int64
	for ; i < len(d) && isDigit(d[i]); i++ {
		n = n*10 + int64(d[i]-'0')
	}
	if digits := i - first; digits > 0 && digits <= 18 && (digits == 1 || d[first] != '0') &&
		(i == len(d) || d[i] != '.' && d[i] != 'e' && d[i] != 'E') {
		if c == '-' {
			n = -n
		}
		p.pos = i
		*v = n
		return nil
	}
	start := p.pos
	raw, integer, err := p.number()
	if err != nil {
		return err
	}
	if integer {
		if n, err := strconv.ParseInt(string(raw), 10, 64); err == nil {
			*v = n
			return nil
		}
	}
	return fmt.Errorf("dagio: offset %d: %s %s is not a 64-bit integer", start, what, raw)
}

// floatSlot decodes a number into *v; null leaves it as it was.
func (p *parser) floatSlot(v *float64) error {
	c := p.next()
	if c == 'n' {
		return p.null()
	}
	if c != '-' && !isDigit(c) {
		return p.errType("alpha", "a number")
	}
	start := p.pos
	raw, _, err := p.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return fmt.Errorf("dagio: offset %d: alpha %s is out of range", start, raw)
	}
	*v = f
	return nil
}

// nameSlot decodes a string into t's name; null leaves it as it was.
func (p *parser) nameSlot(t *rawTask) error {
	switch p.next() {
	case 'n':
		return p.null()
	case '"':
	default:
		return p.errType("name", "a string")
	}
	raw, esc, err := p.str()
	if err != nil {
		return err
	}
	t.nameOff = len(p.names)
	if esc {
		p.names = unquote(p.names, raw)
	} else {
		p.names = append(p.names, raw...)
	}
	t.nameEnd = len(p.names)
	return nil
}

// skip scans one value of any type inside a container at the given
// depth, checking its syntax and the nesting limit.
func (p *parser) skip(depth int) error {
	switch c := p.next(); c {
	case '{', '[':
		if depth >= maxDepth {
			return fmt.Errorf("dagio: offset %d: exceeded max depth %d", p.pos, maxDepth)
		}
		p.pos++
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		if p.next() == end {
			p.pos++
			return nil
		}
		for {
			if c == '{' {
				if _, err := p.readKey(); err != nil {
					return err
				}
			}
			if err := p.skip(depth + 1); err != nil {
				return err
			}
			if done, err := p.more(end); done || err != nil {
				return err
			}
		}
	case '"':
		_, _, err := p.str()
		return err
	case 't':
		return p.literal("true")
	case 'f':
		return p.literal("false")
	case 'n':
		return p.null()
	default:
		if c == '-' || isDigit(c) {
			_, _, err := p.number()
			return err
		}
		return p.errSyntax()
	}
}

// readKey reads an object key and the colon after it. The key is a
// slice of the input unless it needs unquoting, in which case it lives
// in p.key until the next call.
func (p *parser) readKey() ([]byte, error) {
	if p.next() != '"' {
		return nil, p.errSyntax()
	}
	k, esc, err := p.str()
	if err != nil {
		return nil, err
	}
	if esc {
		p.key = unquote(p.key[:0], k)
		k = p.key
	}
	if p.next() != ':' {
		return nil, p.errSyntax()
	}
	p.pos++
	return k, nil
}

// graphField and taskField return the index of the field a key
// names, or -1. They match as encoding/json does: exactly, or else
// under Unicode case folding.
func graphField(key []byte) int {
	switch string(key) {
	case "tasks":
		return 0
	case "edges":
		return 1
	}
	return foldField(key, "tasks", "edges")
}

func taskField(key []byte) int {
	switch string(key) {
	case "seq":
		return 0
	case "alpha":
		return 1
	case "name":
		return 2
	}
	return foldField(key, "seq", "alpha", "name")
}

func foldField(key []byte, fields ...string) int {
	for i, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return i
		}
	}
	return -1
}

// more consumes what follows an array element or object member: a
// comma (done is false) or the closing byte (done is true).
func (p *parser) more(end byte) (done bool, err error) {
	switch p.next() {
	case ',':
		p.pos++
		return false, nil
	case end:
		p.pos++
		return true, nil
	}
	return false, p.errSyntax()
}

// next skips whitespace and returns the byte at p.pos, or 0 at the end
// of the input.
func (p *parser) next() byte {
	if p.pos < len(p.data) && p.data[p.pos] > ' ' {
		return p.data[p.pos]
	}
	for ; p.pos < len(p.data); p.pos++ {
		if c := p.data[p.pos]; !isSpace(c) {
			return c
		}
	}
	return 0
}

func (p *parser) null() error { return p.literal("null") }

func (p *parser) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if p.pos >= len(p.data) || p.data[p.pos] != lit[i] {
			return p.errSyntax()
		}
		p.pos++
	}
	return nil
}

// str scans the string starting at p.pos and returns its contents
// between the quotes. esc reports that they differ from the decoded
// string: they hold an escape or invalid UTF-8.
func (p *parser) str() (raw []byte, esc bool, err error) {
	d := p.data
	start := p.pos + 1
	ascii := true
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			p.pos = i + 1
			raw = d[start:i]
			return raw, esc || !ascii && !utf8.Valid(raw), nil
		case c == '\\':
			esc = true
			i++
			if i >= len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(d) || !isHex(d[i+k]) {
						p.pos = i + k
						return nil, false, p.errSyntax()
					}
				}
				i += 5
			default:
				p.pos = i
				return nil, false, p.errSyntax()
			}
		case c < ' ':
			p.pos = i
			return nil, false, p.errSyntax()
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	p.pos = len(d)
	return nil, false, p.errSyntax()
}

// unquote appends the decoded form of a string's contents, already
// checked by str, to b: escapes resolved, a \u surrogate that does not
// pair and invalid UTF-8 replaced by U+FFFD.
func unquote(b, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, s[i:i+n]...)
			}
			i += n
			continue
		}
		if c != '\\' {
			b = append(b, c)
			i++
			continue
		}
		switch e := s[i+1]; e {
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r := hex4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					r2 = hex4(s[i+2:])
				}
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					b = utf8.AppendRune(b, dec)
					i += 6
					continue
				}
				r = utf8.RuneError
			}
			b = utf8.AppendRune(b, r)
			continue
		default: // '"', '\\', '/'
			b = append(b, e)
		}
		i += 2
	}
	return b
}

// hex4 decodes the four hex digits that start s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number scans a JSON number at p.pos and returns its text; integer
// reports that it has neither a fraction nor an exponent.
func (p *parser) number() (raw []byte, integer bool, err error) {
	d, i := p.data, p.pos
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && isDigit(d[i]):
		i = skipDigits(d, i)
	default:
		p.pos = i
		return nil, false, p.errSyntax()
	}
	integer = true
	if i < len(d) && d[i] == '.' {
		integer = false
		i++
		if i >= len(d) || !isDigit(d[i]) {
			p.pos = i
			return nil, false, p.errSyntax()
		}
		i = skipDigits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		integer = false
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			p.pos = i
			return nil, false, p.errSyntax()
		}
		i = skipDigits(d, i)
	}
	raw = d[p.pos:i]
	p.pos = i
	return raw, integer, nil
}

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

func (p *parser) errSyntax() error {
	if p.pos >= len(p.data) {
		return fmt.Errorf("dagio: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("dagio: invalid character %q at offset %d", p.data[p.pos], p.pos)
}

func (p *parser) errType(what, want string) error {
	return fmt.Errorf("dagio: offset %d: %s must be %s", p.pos, what, want)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }
