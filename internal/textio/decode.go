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
	base     int64  // input offset of buf[0]
	err      error  // the reader's error once it has returned one
	key      []byte // the cost key being scanned
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

// fields scans the top-level object, or a null, which is an object with no
// fields, calling field with each field's index once its name and colon are
// consumed; field scans the value. Bytes after the object are not read.
func (d *decoder) fields(field func(int) error) error {
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
		b, err := d.literal()
		if err != nil {
			return err
		}
		key, index := string(b), -1
		for i, name := range fieldNames {
			if strings.EqualFold(key, name) {
				index = i
				break
			}
		}
		if index < 0 {
			return fmt.Errorf("textio: unknown field %q", key)
		}
		if seen[index] {
			return fmt.Errorf("textio: field %q given twice", key)
		}
		seen[index] = true
		if err := d.expect(':', "after a field name"); err != nil {
			return err
		}
		if err := field(index); err != nil {
			return err
		}
		if more, err = d.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// file scans a File.
func (d *decoder) file(f *File) error {
	return d.fields(func(field int) (err error) {
		switch field {
		case fieldQueries:
			qs := [][]string{}
			var ok bool
			ok, err = d.queries(func(present bool) {
				var q []string
				if present {
					q = []string{}
				}
				qs = append(qs, q)
			}, func(name []byte) {
				qs[len(qs)-1] = append(qs[len(qs)-1], string(name))
			})
			if ok {
				f.Queries = qs
			}
		case fieldCosts:
			var entries []costEntry
			var ok bool
			ok, err = d.costs(func(key []byte, price float64) {
				entries = append(grow(entries, 1), costEntry{string(key), price})
			})
			if ok {
				f.Costs = make(map[string]float64, len(entries))
				for _, e := range entries {
					f.Costs[e.key] = e.price // a repeated key keeps its last price
				}
			}
		case fieldUniformCost:
			f.UniformCost, err = d.optNumber()
		case fieldDefaultCost:
			f.DefaultCost, err = d.optNumber()
		case fieldWeights:
			f.Weights, err = d.weights()
		}
		return err
	})
}

// queries scans the queries field: null, or an array of queries, each null
// or an array of names. It reports whether the array was present. It calls
// query at the start of each query, with whether the query is present, and
// name with each of its names, a null reading as empty; the name's bytes
// are valid only during the call.
func (d *decoder) queries(query func(present bool), name func([]byte)) (bool, error) {
	ok, empty, err := d.open('[', ']', "queries")
	if !ok || err != nil {
		return false, err
	}
	for more := !empty; more; {
		if ok, empty, err = d.open('[', ']', "a query"); err != nil {
			return false, err
		}
		query(ok)
		for more := ok && !empty; more; {
			b, err := d.literalOrNull()
			if err != nil {
				return false, err
			}
			name(b)
			if more, err = d.next(']'); err != nil {
				return false, err
			}
		}
		if more, err = d.next(']'); err != nil {
			return false, err
		}
	}
	return true, nil
}

// costs scans the costs field: null, or an object of numbers or nulls,
// calling entry with each key and price in order; the key's bytes are
// valid only during the call. It reports whether the object was present.
func (d *decoder) costs(entry func(key []byte, price float64)) (bool, error) {
	ok, empty, err := d.open('{', '}', "costs")
	if !ok || err != nil {
		return false, err
	}
	for more := !empty; more; {
		c, err := d.peek()
		if err != nil {
			return false, err
		}
		if c != '"' {
			return false, d.syntax("looking for a cost key")
		}
		key, err := d.literal()
		if err != nil {
			return false, err
		}
		d.key = append(d.key[:0], key...) // the next scan may move key's bytes
		if err := d.expect(':', "after a cost key"); err != nil {
			return false, err
		}
		price, err := d.numberOrNull()
		if err != nil {
			return false, err
		}
		entry(d.key, price)
		if more, err = d.next('}'); err != nil {
			return false, err
		}
	}
	return true, nil
}

// grow returns s with room for n more elements. Unlike append, which grows
// a long slice by a quarter, it at least doubles a full slice, so the long
// lists the scanner builds allocate less in all.
func grow[S ~[]E, E any](s S, n int) S {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
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

// literalOrNull scans a string, or a null, which reads as empty. The bytes
// are valid until the next scan.
func (d *decoder) literalOrNull() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	switch c {
	case '"':
		return d.literal()
	case 'n':
		return nil, d.null()
	}
	return nil, d.syntax("for a property name")
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

// literal scans the string literal at pos and returns its value, valid until
// the next scan. A literal holding only printable ASCII is its own value;
// one holding a backslash or a byte ≥ 0x80 is unquoted by encoding/json,
// which decides escapes, surrogates and invalid UTF-8 exactly as a struct
// decode does.
func (d *decoder) literal() ([]byte, error) {
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
					return lit[1 : len(lit)-1], nil
				}
				var s string
				if err := json.Unmarshal(lit, &s); err != nil {
					return nil, fmt.Errorf("textio: string at offset %d: %w", at, err)
				}
				return []byte(s), nil
			case c == '\\':
				plain = false
				i++ // the escaped byte cannot end the literal
			case c < 0x20:
				d.pos = i
				return nil, d.syntax("in a string")
			case c >= 0x80:
				plain = false
			}
		}
		n := i - d.pos
		if !d.fill() {
			return nil, d.truncated()
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
