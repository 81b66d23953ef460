package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"harmony/internal/trace"
)

// DecodeTasks parses an ingest request body: a single JSON task object, a
// JSON array of tasks, or a stream of task objects (NDJSON, or values
// simply concatenated). It is shared with the multi-tenant front-end so
// both daemons accept the same wire formats.
//
// The body is read into one buffer and scanned once by a decoder
// specialised to trace.Task. It accepts exactly the bodies encoding/json's
// Decoder accepts in these framings, and yields the same tasks: keys are
// unescaped and then matched exactly or case-insensitively, the last of
// duplicate keys wins, null leaves a field unchanged (and is a zero task
// as a whole element), unknown keys are skipped but must be valid JSON
// nested at most 10,000 deep, numbers are parsed by strconv from their
// literal bytes, and strings are unquoted with invalid UTF-8 and lone
// surrogates coerced to U+FFFD. The tests hold it to encoding/json as an
// oracle.
func DecodeTasks(r io.Reader) ([]trace.Task, error) {
	buf, _ := bodyBufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	b := bytes.NewBuffer((*buf)[:0])
	_, err := b.ReadFrom(r)
	body := b.Bytes()
	var tasks []trace.Task
	if err == nil {
		d := taskDecoder{data: body}
		tasks, err = d.decode()
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyBufs.Put(buf)
	}
	return tasks, err
}

// bodyBufs recycles read buffers across calls. A body is dead once it is
// decoded: every string DecodeTasks returns is a copy.
var bodyBufs sync.Pool

// maxPooledBody bounds the buffers bodyBufs keeps, so one huge body is
// not held for the requests after it.
const maxPooledBody = 1 << 20

// maxDepth is encoding/json's nesting limit. Each task value counts from
// zero, so the task object itself is level 1.
const maxDepth = 10000

// taskFields are trace.Task's JSON keys, indexed by the field constants.
var taskFields = [...]string{"id", "job", "submit", "duration", "cpu", "mem", "priority", "class", "constraint", "tenant"}

const (
	fieldID = iota
	fieldJob
	fieldSubmit
	fieldDuration
	fieldCPU
	fieldMem
	fieldPriority
	fieldClass
	fieldConstraint
	fieldTenant
)

// taskDecoder is the cursor of one DecodeTasks call.
type taskDecoder struct {
	data  []byte
	off   int
	tasks []trace.Task
	// scratch holds the last string that needed unescaping.
	scratch []byte
	// The last constraint and tenant decoded: a task repeating one shares
	// its string instead of allocating a copy.
	constraint, tenant string
}

func (d *taskDecoder) decode() ([]trace.Task, error) {
	d.skipSpace()
	if d.off == len(d.data) {
		return nil, errors.New("empty body")
	}
	// Every task object opens with a brace; the cap keeps a body of
	// braces inside strings from reserving more than it could hold.
	d.tasks = make([]trace.Task, 0, min(bytes.Count(d.data, []byte{'{'}), len(d.data)/32))
	switch d.data[d.off] {
	case '[':
		d.off++
		if err := d.array(); err != nil {
			return nil, err
		}
	case '{':
		for d.off < len(d.data) {
			if err := d.task(); err != nil {
				return nil, err
			}
			d.skipSpace()
		}
	default:
		return nil, errors.New("expected a task object, array, or NDJSON stream")
	}
	if len(d.tasks) == 0 {
		return nil, nil
	}
	return d.tasks, nil
}

// array decodes the elements of a task array whose '[' is behind the
// cursor. Only whitespace may follow the closing bracket.
func (d *taskDecoder) array() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.off++
	} else {
		for {
			if err := d.task(); err != nil {
				return err
			}
			if c, err = d.next(); err != nil {
				return err
			}
			if c != ',' && c != ']' {
				return d.syntaxError("after array element")
			}
			d.off++
			if c == ']' {
				break
			}
		}
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return errors.New("trailing data after the task array")
	}
	return nil
}

// task decodes one element of the body: a task object, or null for a
// zero task.
func (d *taskDecoder) task() error {
	n := len(d.tasks)
	c, err := d.next()
	if err == nil {
		d.tasks = append(d.tasks, trace.Task{})
		switch c {
		case '{':
			err = d.object(&d.tasks[n])
		case 'n':
			err = d.literal("null")
		default:
			err = d.valueError("a task")
		}
	}
	if err != nil {
		return fmt.Errorf("task %d: %w", n, err)
	}
	return nil
}

// object decodes the object at the cursor into t.
func (d *taskDecoder) object(t *trace.Task) error {
	d.off++ // '{'
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == '}' {
		d.off++
		return nil
	}
	for {
		if c != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.stringLit()
		if err != nil {
			return err
		}
		f := field(key)
		if c, err = d.next(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntaxError("after object key")
		}
		d.off++
		if c, err = d.next(); err != nil {
			return err
		}
		switch {
		case f < 0:
			err = d.skip(1)
		case c == 'n':
			err = d.literal("null") // leaves the field as it is
		default:
			err = d.member(t, f)
		}
		if err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		if c != ',' && c != '}' {
			return d.syntaxError("after object key:value pair")
		}
		d.off++
		if c == '}' {
			return nil
		}
		if c, err = d.next(); err != nil {
			return err
		}
	}
}

// field returns the field constant of key, matched exactly first and
// case-insensitively second as encoding/json matches, or -1 when no
// field has that name.
func field(key []byte) int {
	switch string(key) {
	case "id":
		return fieldID
	case "job":
		return fieldJob
	case "submit":
		return fieldSubmit
	case "duration":
		return fieldDuration
	case "cpu":
		return fieldCPU
	case "mem":
		return fieldMem
	case "priority":
		return fieldPriority
	case "class":
		return fieldClass
	case "constraint":
		return fieldConstraint
	case "tenant":
		return fieldTenant
	}
	for i, name := range taskFields {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// member decodes the non-null value at the cursor into field f of t.
func (d *taskDecoder) member(t *trace.Task, f int) error {
	var err error
	switch f {
	case fieldConstraint:
		t.Constraint, err = d.stringField(f, &d.constraint)
		return err
	case fieldTenant:
		t.Tenant, err = d.stringField(f, &d.tenant)
		return err
	}
	if c := d.data[d.off]; c != '-' && !isDigit(c) {
		return d.valueError(fmt.Sprintf("task field %q", taskFields[f]))
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	switch f {
	case fieldID:
		t.ID, err = strconv.ParseUint(string(lit), 10, 64)
	case fieldJob:
		t.JobID, err = strconv.ParseUint(string(lit), 10, 64)
	case fieldSubmit:
		t.Submit, err = strconv.ParseFloat(string(lit), 64)
	case fieldDuration:
		t.Duration, err = strconv.ParseFloat(string(lit), 64)
	case fieldCPU:
		t.CPU, err = strconv.ParseFloat(string(lit), 64)
	case fieldMem:
		t.Mem, err = strconv.ParseFloat(string(lit), 64)
	case fieldPriority:
		t.Priority, err = parseInt(lit)
	case fieldClass:
		t.SchedClass, err = parseInt(lit)
	}
	if err != nil {
		return fmt.Errorf("cannot decode number %s into task field %q", lit, taskFields[f])
	}
	return nil
}

func parseInt(lit []byte) (int, error) {
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err
}

// stringField decodes the string at the cursor for field f, reusing
// *last when the value repeats it.
func (d *taskDecoder) stringField(f int, last *string) (string, error) {
	if d.data[d.off] != '"' {
		return "", d.valueError(fmt.Sprintf("task field %q", taskFields[f]))
	}
	s, err := d.stringLit()
	if err != nil {
		return "", err
	}
	if string(s) != *last {
		*last = string(s)
	}
	return *last, nil
}

// stringLit scans the string literal at the cursor and returns its
// unquoted value, valid until the next call.
func (d *taskDecoder) stringLit() ([]byte, error) {
	raw, plain, err := d.str()
	if err != nil || plain {
		return raw, err
	}
	return d.unquote(raw), nil
}

// str scans the string literal at the cursor with encoding/json's syntax
// and returns what lies between the quotes; plain reports that it holds
// neither escapes nor non-ASCII bytes, so it is its own unquoted value.
func (d *taskDecoder) str() (raw []byte, plain bool, err error) {
	data, start := d.data, d.off+1
	plain = true
	for i := start; i < len(data); i++ {
		c := data[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' {
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			return data[start:i], plain, nil
		case c < ' ':
			d.off = i
			return nil, false, d.syntaxError("in string literal")
		case c >= utf8.RuneSelf:
			plain = false
			continue
		}
		plain = false // a backslash
		if i++; i < len(data) {
			switch data[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				continue
			case 'u':
				for end := i + 4; i < end; {
					if i++; i == len(data) || !isHex(data[i]) {
						d.off = i
						return nil, false, d.syntaxError(`in \u hexadecimal character escape`)
					}
				}
				continue
			}
		}
		d.off = i
		return nil, false, d.syntaxError("in string escape code")
	}
	d.off = len(data)
	return nil, false, io.ErrUnexpectedEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unescape maps the byte after a backslash to what it stands for (all
// but \u, which unquote decodes itself).
var unescape = [256]byte{'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t', '\\': '\\', '/': '/', '"': '"'}

// unquote decodes the contents of a string literal that str accepted, as
// encoding/json does: escapes are replaced, a \u surrogate pair becomes
// one rune, and a lone surrogate or a byte that is not UTF-8 becomes
// U+FFFD.
func (d *taskDecoder) unquote(raw []byte) []byte {
	b := d.scratch[:0]
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		case c == '\\':
			b = append(b, unescape[raw[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.scratch = b
	return b
}

// hex4 decodes the four hex digits str has checked at the start of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number scans the number literal at the cursor with encoding/json's
// grammar and returns its bytes.
func (d *taskDecoder) number() ([]byte, error) {
	data, start := d.data, d.off
	i := start
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		i = digits(data, i+1)
	default:
		d.off = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		i = digits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		i = digits(data, i)
	}
	d.off = i
	return data[start:i], nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

// literal consumes lit (true, false or null) at the cursor.
func (d *taskDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i, d.off = i+1, d.off+1 {
		if d.off == len(d.data) {
			return io.ErrUnexpectedEOF
		}
		if d.data[d.off] != lit[i] {
			return d.syntaxError("in literal " + lit)
		}
	}
	return nil
}

// skip scans past the value at the cursor, held by a container at the
// given nesting depth, checking its syntax as encoding/json does.
func (d *taskDecoder) skip(depth int) error {
	switch c := d.data[d.off]; {
	case c == '{' || c == '[':
		if depth == maxDepth {
			return d.syntaxError("exceeded max depth")
		}
		return d.skipContainer(depth + 1)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// skipContainer scans past the object or array at the cursor.
func (d *taskDecoder) skipContainer(depth int) error {
	object := d.data[d.off] == '{'
	end := byte(']')
	if object {
		end = '}'
	}
	d.off++
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == end {
		d.off++
		return nil
	}
	for {
		if object {
			if c != '"' {
				return d.syntaxError("looking for beginning of object key string")
			}
			if _, _, err := d.str(); err != nil {
				return err
			}
			if c, err = d.next(); err != nil {
				return err
			}
			if c != ':' {
				return d.syntaxError("after object key")
			}
			d.off++
			if _, err = d.next(); err != nil {
				return err
			}
		}
		if err := d.skip(depth); err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		if c != ',' && c != end {
			return d.syntaxError("after container element")
		}
		d.off++
		if c == end {
			return nil
		}
		if c, err = d.next(); err != nil {
			return err
		}
	}
}

// skipSpace moves the cursor past JSON whitespace.
func (d *taskDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// next skips whitespace and returns the byte at the cursor; the body
// ending there is an error.
func (d *taskDecoder) next() (byte, error) {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off], nil // no whitespace: json.Encoder writes none inside a line
	}
	d.skipSpace()
	if d.off == len(d.data) {
		return 0, io.ErrUnexpectedEOF
	}
	return d.data[d.off], nil
}

// valueError reports that the value at the cursor cannot be decoded into
// what `into` names: a type error for a JSON value, a syntax error for
// anything else.
func (d *taskDecoder) valueError(into string) error {
	var kind string
	switch c := d.data[d.off]; {
	case c == '"':
		kind = "string"
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode a JSON %s into %s (offset %d)", kind, into, d.off)
}

// syntaxError reports the byte at the cursor as invalid in context, or
// the body as ending too soon.
func (d *taskDecoder) syntaxError(context string) error {
	if d.off == len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.off], context, d.off)
}
