package model

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file holds the graph JSON decoder: one pass over the input,
// straight into graphJSON, with the results encoding/json's
// Decoder.Decode (DisallowUnknownFields set) gives for that type.
// DESIGN.md ("Graph JSON decoding") lists the accepted-input contract;
// the encoding/json oracle and the differential tests live in
// jsondecode_test.go.
//
// Every position in the schema holds an object, an array of objects, a
// string, an int or null, and any other JSON there is an error, so
// the decoder never needs to skip a value: it either consumes what the
// schema expects or stops with an error.

// Field names of each object, upper-cased: a key matches a field when
// its case-folded form (see fieldIndex) equals one of them. encoding/json
// tries an exact match first, but no two fields of one object fold to
// the same name, so the folded match alone selects the same field.
var (
	graphFields = []string{"ECUS", "TASKS", "EDGES"}
	ecuFields   = []string{"NAME", "KIND"}
	taskFields  = []string{"NAME", "WCET", "BCET", "PERIOD", "MAX_PERIOD", "DEADLINE", "OFFSET", "PRIO", "ECU", "SEM"}
	edgeFields  = []string{"SRC", "DST", "CAP"}
)

// maxFieldLen is the longest field name, "MAX_PERIOD".
const maxFieldLen = 10

type decoder struct {
	s   string
	pos int
}

// decodeGraphJSON decodes the first JSON value of s. Bytes after it
// are ignored, and a top-level null gives the zero graphJSON.
func decodeGraphJSON(s string) (graphJSON, error) {
	var in graphJSON
	d := &decoder{s: s}
	d.skipSpace()
	switch d.peek() {
	case 'n':
		return in, d.null()
	case '{':
	default:
		return in, d.syntax("looking for beginning of object")
	}
	err := d.object(graphFields, func(f int) error {
		switch f {
		case 0:
			return decodeSlice(d, &in.ECUs, d.ecu)
		case 1:
			return decodeSlice(d, &in.Tasks, d.task)
		default:
			return decodeSlice(d, &in.Edges, d.edge)
		}
	})
	return in, err
}

func (d *decoder) ecu(e *ecuJSON) error {
	return d.elem(ecuFields, func(f int) error {
		if f == 0 {
			return d.str(&e.Name)
		}
		return d.str(&e.Kind)
	})
}

func (d *decoder) task(t *taskJSON) error {
	return d.elem(taskFields, func(f int) error {
		switch f {
		case 0:
			return d.str(&t.Name)
		case 1:
			return d.str(&t.WCET)
		case 2:
			return d.str(&t.BCET)
		case 3:
			return d.str(&t.Period)
		case 4:
			return d.str(&t.MaxPeriod)
		case 5:
			return d.str(&t.Deadline)
		case 6:
			return d.str(&t.Offset)
		case 7:
			return d.int(&t.Prio)
		case 8:
			return d.str(&t.ECU)
		default:
			return d.str(&t.Sem)
		}
	})
}

func (d *decoder) edge(e *edgeJSON) error {
	return d.elem(edgeFields, func(f int) error {
		switch f {
		case 0:
			return d.str(&e.Src)
		case 1:
			return d.str(&e.Dst)
		default:
			return d.int(&e.Cap)
		}
	})
}

// decodeSlice decodes an array of objects, or null, into *dst. Like
// encoding/json it decodes into the elements already there, so a
// repeated key merges into what the earlier one decoded: element i is
// reused while i < len, and past len it still holds whatever an earlier
// array decoded at i, or zero. That is what decodeState.array exposes
// through reflect's spare capacity, whatever the capacity is, because
// both grow only when len == cap and then copy every element. An empty
// array gives an empty non-nil slice and null gives nil.
func decodeSlice[T any](d *decoder, dst *[]T, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.syntax("looking for beginning of array")
	}
	d.pos++
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		*dst = []T{}
		return nil
	}
	s := *dst
	for i := 0; ; {
		switch {
		case i == cap(s):
			var zero T
			s = append(s, zero)
		case i == len(s):
			s = s[:i+1]
		}
		if err := elem(&s[i]); err != nil {
			return err
		}
		i++
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			*dst = s[:i]
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// elem decodes an array element: an object merged into *the element,
// or null, which leaves the element as it is.
func (d *decoder) elem(fields []string, field func(int) error) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '{':
		return d.object(fields, field)
	default:
		return d.syntax("looking for beginning of object")
	}
}

// object decodes the object at d.pos, calling field with the index of
// each key's field once the decoder is at the key's value.
func (d *decoder) object(fields []string, field func(int) error) error {
	d.pos++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		f, err := d.key(fields)
		if err != nil {
			return err
		}
		if err := field(f); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// key reads `"key" :` and the whitespace after it and returns the index
// of the field the key names.
func (d *decoder) key(fields []string) (int, error) {
	if d.peek() != '"' {
		return 0, d.syntax("looking for beginning of object key string")
	}
	start := d.pos
	var key string
	if err := d.str(&key); err != nil {
		return 0, err
	}
	end := d.pos
	d.skipSpace()
	if d.peek() != ':' {
		return 0, d.syntax("after object key")
	}
	d.pos++
	d.skipSpace()
	if f := fieldIndex(fields, key); f >= 0 {
		return f, nil
	}
	d.pos = start
	return 0, d.errorf("unknown field %s", d.s[start:end])
}

// fieldIndex returns the index of the field that the unquoted key names,
// or -1. The key is folded as encoding/json's foldName folds it, into a
// fixed buffer, so matching allocates nothing: ASCII letters are
// upper-cased and any other rune becomes the smallest rune of its
// case-folding orbit, which is ASCII only for 'ſ' (to 'S') and the
// Kelvin sign (to 'K').
func fieldIndex(fields []string, key string) int {
	var buf [maxFieldLen]byte
	n := 0
	for _, r := range key {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || n == maxFieldLen {
			return -1
		}
		buf[n] = byte(r)
		n++
	}
	for f, name := range fields {
		if string(buf[:n]) == name {
			return f
		}
	}
	return -1
}

// foldRune returns the smallest rune of r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// str decodes a string, or null, which leaves *dst as it is. A string
// without escapes or invalid UTF-8 is a substring of the input; any
// other is built in b from the first such byte on. The first loop is
// the fast path for plain ASCII.
func (d *decoder) str(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
	default:
		return d.syntax("looking for beginning of string")
	}
	start := d.pos + 1
	i := start
	for i < len(d.s) && d.s[i] != '"' && d.s[i] != '\\' && ' ' <= d.s[i] && d.s[i] < utf8.RuneSelf {
		i++
	}
	if i < len(d.s) && d.s[i] == '"' {
		d.pos = i + 1
		*dst = d.s[start:i]
		return nil
	}
	var b []byte
	for i < len(d.s) {
		c := d.s[i]
		if b == nil && (c == '\\' || c >= utf8.RuneSelf) {
			if r, _ := utf8.DecodeRuneInString(d.s[i:]); c == '\\' || r == utf8.RuneError {
				b = append(make([]byte, 0, i-start+16), d.s[start:i]...)
			}
		}
		switch {
		case c == '"':
			d.pos = i + 1
			if b == nil {
				*dst = d.s[start:i]
			} else {
				*dst = string(b)
			}
			return nil
		case c == '\\':
			r, next, err := d.escape(i)
			if err != nil {
				return err
			}
			b = utf8.AppendRune(b, r)
			i = next
		case c < ' ':
			d.pos = i
			return d.syntax("in string literal")
		case c < utf8.RuneSelf:
			if b != nil {
				b = append(b, c)
			}
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[i:])
			if b != nil {
				b = utf8.AppendRune(b, r) // RuneError for invalid UTF-8
			}
			i += size
		}
	}
	d.pos = len(d.s)
	return d.syntax("in string literal")
}

// escape decodes the escape sequence at d.s[i] == '\\' and returns its
// rune and the index after it. A \u escape of a UTF-16 high surrogate
// followed by a \u escape of a low one is one rune; any other surrogate
// is U+FFFD, and a \u escape after it is decoded on its own.
func (d *decoder) escape(i int) (rune, int, error) {
	if i+1 >= len(d.s) {
		d.pos = len(d.s)
		return 0, 0, d.syntax("in string escape code")
	}
	c := d.s[i+1]
	if k := strings.IndexByte(`"\/bfnrt`, c); k >= 0 {
		return rune("\"\\/\b\f\n\r\t"[k]), i + 2, nil
	}
	r := hex4(d.s, i+2)
	if c != 'u' || r < 0 {
		d.pos = i
		return 0, 0, d.syntax("in string escape code")
	}
	i += 6
	if !utf16.IsSurrogate(r) {
		return r, i, nil
	}
	if i+1 < len(d.s) && d.s[i] == '\\' && d.s[i+1] == 'u' {
		if r2 := hex4(d.s, i+2); r2 >= 0 {
			if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
				return dec, i + 6, nil
			}
		}
	}
	return unicode.ReplacementChar, i, nil
}

// hex4 returns the value of the four hex digits at s[i:], or -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	v, err := strconv.ParseUint(s[i:i+4], 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// int decodes a JSON integer that fits in an int, or null, which
// leaves *dst as it is. A fraction or exponent is an error even when
// the value is integral ("1.0", "1e0"), as it is for encoding/json.
func (d *decoder) int(dst *int) error {
	c := d.peek()
	switch {
	case c == 'n':
		return d.null()
	case c == '-' || '0' <= c && c <= '9':
	default:
		return d.syntax("looking for beginning of integer")
	}
	start, i := d.pos, d.pos
	if c == '-' {
		i++
	}
	switch {
	case i < len(d.s) && d.s[i] == '0':
		i++
	case i < len(d.s) && '1' <= d.s[i] && d.s[i] <= '9':
		for i < len(d.s) && '0' <= d.s[i] && d.s[i] <= '9' {
			i++
		}
	default:
		d.pos = i
		return d.syntax("in numeric literal")
	}
	if i < len(d.s) {
		switch c := d.s[i]; {
		case c == '.' || c == 'e' || c == 'E' || '0' <= c && c <= '9':
			return d.errorf("number %s... is not an integer", d.s[start:i+1])
		}
	}
	v, err := strconv.ParseInt(d.s[start:i], 10, strconv.IntSize)
	if err != nil {
		return d.errorf("number %s overflows int", d.s[start:i])
	}
	d.pos = i
	*dst = int(v)
	return nil
}

// null consumes the literal null.
func (d *decoder) null() error {
	if !strings.HasPrefix(d.s[d.pos:], "null") {
		return d.syntax("in literal null")
	}
	d.pos += 4
	return nil
}

func (d *decoder) skipSpace() {
	i := d.pos
	for ; i < len(d.s); i++ {
		if c := d.s[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
	}
	d.pos = i
}

// peek returns the byte at d.pos, or 0 at the end of the input (0 is
// never valid where peek's result is checked).
func (d *decoder) peek() byte {
	if d.pos < len(d.s) {
		return d.s[d.pos]
	}
	return 0
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// syntax reports malformed JSON at d.pos.
func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.s) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf("invalid character %q %s", d.s[d.pos], context)
}
