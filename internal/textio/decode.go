package textio

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// window is the size of the buffer Read scans its input through. The
// buffer grows only for a single token longer than this.
const window = 16 << 10

// The File fields, in the order of the struct. A key names one when the two
// are equal under strings.EqualFold, which is encoding/json's match.
const (
	fieldQueries = iota
	fieldCosts
	fieldUniformCost
	fieldDefaultCost
	fieldWeights
	numFields
)

var fieldNames = [numFields]string{"queries", "costs", "uniform_cost", "default_cost", "weights"}

// decoder scans one File object off a reader. buf[pos:end] holds the bytes
// read but not yet consumed, and pos is always the start of the token being
// scanned, so a refill keeps exactly that token.
type decoder struct {
	r        io.Reader
	buf      []byte
	pos, end int
	base     int64 // input offset of buf[0]
	err      error // the reader's error once it has returned one
}

// decode reads one File object from r through a buffer of size win. It does
// not validate the result.
func decode(r io.Reader, win int) (*File, error) {
	d := &decoder{r: r, buf: make([]byte, win)}
	var f File
	if err := d.file(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// fill reads more input behind the unconsumed bytes, first moving them to
// the front of the buffer, and reports whether any arrived. Callers hold
// positions as offsets from pos, which fill resets to 0.
func (d *decoder) fill() bool {
	if d.err != nil {
		return false
	}
	if d.pos > 0 {
		d.base += int64(d.pos)
		d.end = copy(d.buf, d.buf[d.pos:d.end])
		d.pos = 0
	}
	if d.end == len(d.buf) {
		d.buf = append(d.buf, make([]byte, len(d.buf))...)
	}
	for {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.err = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
}

// truncated is the error for input that ends inside the object.
func (d *decoder) truncated() error {
	if d.err == io.EOF {
		return errors.New("textio: unexpected EOF")
	}
	return fmt.Errorf("textio: %w", d.err)
}

// syntax is the error for the byte at pos.
func (d *decoder) syntax(what string) error {
	return fmt.Errorf("textio: invalid character %q %s at offset %d", d.buf[d.pos], what, d.base+int64(d.pos))
}

// peek skips whitespace and returns the next byte without consuming it.
func (d *decoder) peek() (byte, error) {
	for {
		buf := d.buf[:d.end]
		for i := d.pos; i < len(buf); i++ {
			switch c := buf[i]; c {
			case ' ', '\t', '\n', '\r':
			default:
				d.pos = i
				return c, nil
			}
		}
		d.pos = d.end
		if !d.fill() {
			return 0, d.truncated()
		}
	}
}

// expect consumes the next non-space byte, which must be c.
func (d *decoder) expect(c byte, what string) error {
	got, err := d.peek()
	if err != nil {
		return err
	}
	if got != c {
		return d.syntax(what)
	}
	d.pos++
	return nil
}

// next reports, after an element, whether another follows (a comma) or the
// container ends (close), consuming the byte.
func (d *decoder) next(close byte) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case ',':
		d.pos++
		return true, nil
	case close:
		d.pos++
		return false, nil
	}
	return false, d.syntax("after element")
}

// open consumes the start of a container, or a null. It reports whether a
// container started, and whether it is empty (its close is consumed too).
func (d *decoder) open(start, close byte, what string) (ok, empty bool, err error) {
	c, err := d.peek()
	if err != nil {
		return false, false, err
	}
	switch c {
	case 'n':
		return false, false, d.null()
	case start:
		d.pos++
		c, err = d.peek()
		if err != nil || c != close {
			return true, false, err
		}
		d.pos++
		return true, true, nil
	}
	return false, false, d.syntax("for " + what)
}

// null consumes the literal null.
func (d *decoder) null() error {
	for d.end-d.pos < 4 {
		if !d.fill() {
			return d.truncated()
		}
	}
	if string(d.buf[d.pos:d.pos+4]) != "null" {
		return d.syntax("in literal")
	}
	d.pos += 4
	return nil
}

// file scans the top-level object, or a null, which leaves f empty. Bytes
// after it are not read.
func (d *decoder) file(f *File) error {
	ok, empty, err := d.open('{', '}', "the instance")
	if !ok || err != nil {
		return err
	}
	var seen [numFields]bool
	for more := !empty; more; {
		c, err := d.peek()
		if err != nil {
			return err
		}
		if c != '"' {
			return d.syntax("looking for a field name")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		field := -1
		for i, name := range fieldNames {
			if strings.EqualFold(key, name) {
				field = i
				break
			}
		}
		if field < 0 {
			return fmt.Errorf("textio: unknown field %q", key)
		}
		if seen[field] {
			return fmt.Errorf("textio: field %q given twice", key)
		}
		seen[field] = true
		if err := d.expect(':', "after a field name"); err != nil {
			return err
		}
		switch field {
		case fieldQueries:
			f.Queries, err = d.queries()
		case fieldCosts:
			f.Costs, err = d.costs()
		case fieldUniformCost:
			f.UniformCost, err = d.optNumber()
		case fieldDefaultCost:
			f.DefaultCost, err = d.optNumber()
		case fieldWeights:
			f.Weights, err = d.weights()
		}
		if err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// queries scans the queries field: null, or an array of queries, each null
// or an array of names.
func (d *decoder) queries() ([][]string, error) {
	ok, empty, err := d.open('[', ']', "queries")
	if !ok || err != nil {
		return nil, err
	}
	qs := [][]string{}
	for more := !empty; more; {
		var q []string
		if ok, empty, err = d.open('[', ']', "a query"); err != nil {
			return nil, err
		}
		if ok {
			q = []string{}
		}
		for more := ok && !empty; more; {
			name, err := d.stringOrNull()
			if err != nil {
				return nil, err
			}
			q = append(q, name)
			if more, err = d.next(']'); err != nil {
				return nil, err
			}
		}
		qs = append(qs, q)
		if more, err = d.next(']'); err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// costs scans the costs field: null, or an object of numbers or nulls.
func (d *decoder) costs() (map[string]float64, error) {
	ok, empty, err := d.open('{', '}', "costs")
	if !ok || err != nil {
		return nil, err
	}
	// Collect the entries first, so that the map is made at its final size
	// instead of rehashing as it grows. The list doubles, which allocates
	// less than append's gentler growth does for long lists.
	type entry struct {
		key   string
		price float64
	}
	var entries []entry
	for more := !empty; more; {
		c, err := d.peek()
		if err != nil {
			return nil, err
		}
		if c != '"' {
			return nil, d.syntax("looking for a cost key")
		}
		key, err := d.string()
		if err != nil {
			return nil, err
		}
		if err := d.expect(':', "after a cost key"); err != nil {
			return nil, err
		}
		price, err := d.numberOrNull()
		if err != nil {
			return nil, err
		}
		if len(entries) == cap(entries) {
			entries = slices.Grow(entries, len(entries)+1)
		}
		entries = append(entries, entry{key, price})
		if more, err = d.next('}'); err != nil {
			return nil, err
		}
	}
	m := make(map[string]float64, len(entries))
	for _, e := range entries {
		m[e.key] = e.price // a repeated key keeps its last price
	}
	return m, nil
}

// weights scans the weights field: null, or an array of numbers or nulls.
func (d *decoder) weights() ([]float64, error) {
	ok, empty, err := d.open('[', ']', "weights")
	if !ok || err != nil {
		return nil, err
	}
	ws := []float64{}
	for more := !empty; more; {
		w, err := d.numberOrNull()
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
		if more, err = d.next(']'); err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// optNumber scans a field holding null (nil) or a number.
func (d *decoder) optNumber() (*float64, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c == 'n' {
		return nil, d.null()
	}
	v, err := d.number()
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// stringOrNull scans a string, or a null, which reads as "".
func (d *decoder) stringOrNull() (string, error) {
	c, err := d.peek()
	if err != nil {
		return "", err
	}
	switch c {
	case '"':
		return d.string()
	case 'n':
		return "", d.null()
	}
	return "", d.syntax("for a property name")
}

// numberOrNull scans a number, or a null, which reads as 0.
func (d *decoder) numberOrNull() (float64, error) {
	c, err := d.peek()
	if err != nil {
		return 0, err
	}
	if c == 'n' {
		return 0, d.null()
	}
	return d.number()
}

// string scans the string literal at pos and returns a copy of its value.
// A literal holding only printable ASCII is its own value; one holding a
// backslash or a byte ≥ 0x80 is unquoted by encoding/json, which decides
// escapes, surrogates and invalid UTF-8 exactly as a struct decode does.
func (d *decoder) string() (string, error) {
	plain := true
	i := d.pos + 1
	for {
		buf := d.buf[:d.end]
		for ; i < len(buf); i++ {
			c := buf[i]
			if plainByte[c] {
				continue
			}
			switch {
			case c == '"':
				lit, at := buf[d.pos:i+1], d.base+int64(d.pos)
				d.pos = i + 1
				if plain {
					return string(lit[1 : len(lit)-1]), nil
				}
				var s string
				if err := json.Unmarshal(lit, &s); err != nil {
					return "", fmt.Errorf("textio: string at offset %d: %w", at, err)
				}
				return s, nil
			case c == '\\':
				plain = false
				i++ // the escaped byte cannot end the literal
			case c < 0x20:
				d.pos = i
				return "", d.syntax("in a string")
			case c >= 0x80:
				plain = false
			}
		}
		n := i - d.pos
		if !d.fill() {
			return "", d.truncated()
		}
		i = d.pos + n
	}
}

// plainByte reports which bytes stand for themselves in a string literal.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// number scans the number at pos: the longest run of bytes that can occur
// in one, which must then match the JSON grammar, parsed as strconv does
// for encoding/json. Out-of-range numbers are rejected.
func (d *decoder) number() (float64, error) {
	i := d.pos
	for {
		for ; i < d.end && isNumberByte(d.buf[i]); i++ {
		}
		if i < d.end {
			break
		}
		n := i - d.pos
		if !d.fill() {
			if d.err != io.EOF {
				return 0, d.truncated()
			}
			i = d.pos + n
			break // the caller reports the missing close
		}
		i = d.pos + n
	}
	lit := d.buf[d.pos:i]
	if v, ok := smallInt(lit); ok {
		d.pos = i
		return v, nil
	}
	if !validNumber(lit) {
		if len(lit) == 0 {
			return 0, d.syntax("for a number")
		}
		return 0, fmt.Errorf("textio: invalid number %q at offset %d", lit, d.base+int64(d.pos))
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("textio: number %s at offset %d: %w", lit, d.base+int64(d.pos), err)
	}
	d.pos = i
	return v, nil
}

// smallInt parses a JSON number of at most 15 digits with no sign,
// fraction or exponent: every such integer is a float64, so this is what
// strconv.ParseFloat returns for it.
func smallInt(b []byte) (float64, bool) {
	if len(b) == 0 || len(b) > 15 || b[0] == '0' && len(b) > 1 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return float64(v), true
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// validNumber reports whether b is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	digits := func(i int) int { // the end of the digit run at i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return false
		}
		i = j
	}
	return i == len(b)
}
