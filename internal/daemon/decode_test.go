package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"harmony/internal/trace"
)

// decodeTasksJSON is the encoding/json decoder DecodeTasks replaced, kept
// verbatim as the oracle the scanner must agree with.
func decodeTasksJSON(r io.Reader) ([]trace.Task, error) {
	br := bufio.NewReader(r)
	first, err := peekNonSpace(br)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("empty body")
		}
		return nil, err
	}
	dec := json.NewDecoder(br)
	var tasks []trace.Task
	if first == '[' {
		if _, err := dec.Token(); err != nil { // consume '['
			return nil, err
		}
		for dec.More() {
			var t trace.Task
			if err := dec.Decode(&t); err != nil {
				return nil, fmt.Errorf("task %d: %w", len(tasks), err)
			}
			tasks = append(tasks, t)
		}
		if _, err := dec.Token(); err != nil { // consume ']'
			return nil, err
		}
		// Only whitespace may follow, as after an NDJSON stream.
		if _, err := dec.Token(); err != io.EOF {
			return nil, fmt.Errorf("trailing data after the task array")
		}
		return tasks, nil
	}
	if first != '{' {
		return nil, fmt.Errorf("expected a task object, array, or NDJSON stream")
	}
	// Stream of objects: covers both the single-object and NDJSON cases.
	for {
		var t trace.Task
		if err := dec.Decode(&t); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("task %d: %w", len(tasks), err)
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// peekNonSpace returns the first non-whitespace byte without consuming it.
func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return 0, err
		}
		return b, nil
	}
}

// sameTasks reports whether two decodes are identical: nil-ness, length,
// and every field, floats compared bit for bit (so -0 is not 0).
func sameTasks(a, b []trace.Task) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.JobID != y.JobID || x.Priority != y.Priority || x.SchedClass != y.SchedClass ||
			x.Constraint != y.Constraint || x.Tenant != y.Tenant {
			return false
		}
		for _, f := range [][2]float64{{x.Submit, y.Submit}, {x.Duration, y.Duration}, {x.CPU, y.CPU}, {x.Mem, y.Mem}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return false
			}
		}
	}
	return true
}

// agreeWithOracle decodes body with DecodeTasks, reading it from r, and
// with encoding/json, and fails unless both accept with the same tasks
// or both reject. It returns the scanner's tasks.
func agreeWithOracle(t *testing.T, body []byte, r io.Reader) []trace.Task {
	t.Helper()
	got, gotErr := DecodeTasks(r)
	want, wantErr := decodeTasksJSON(bytes.NewReader(body))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: scanner error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if !sameTasks(got, want) {
		t.Fatalf("body %q:\n scanner       %+v\n encoding/json %+v", body, got, want)
	}
	return got
}

func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

// decodeQuirks are the corners of encoding/json's behaviour the scanner
// reproduces. Each row names the behaviour; whether it is accepted, and
// what it decodes to, comes from the oracle.
var decodeQuirks = []struct{ name, body string }{
	{"exact key", `{"id":1,"job":2,"submit":3.5,"duration":60,"cpu":0.5,"mem":0.25,"priority":9,"class":2,"constraint":"x86","tenant":"a"}`},
	{"upper-case key", `{"ID":1,"Tenant":"a","CLASS":2}`},
	{"long s folds to s", `{"ſubmit":1,"claſs":2,"conſtraint":"p"}`},
	{"escaped key", `{"\u0069d":7,"ten\u0061nt":"b"}`},
	{"last duplicate wins", `{"id":5,"id":6,"ID":7}`},
	{"null leaves field", `{"id":5,"id":null,"tenant":"a","tenant":null}`},
	{"empty object", `{}`},
	{"unknown keys skipped", `{"x":{"a":[1,true,false,null,"s\n",{"b":-1.5e+3}]},"":0,"id":3}`},
	{"unknown key braces in string", `{"note":"{{{{[[","id":1}`},
	{"unknown key bad literal", `{"x":tru}`},
	{"unknown key trailing comma", `{"x":[1,]}`},
	{"unknown key bad escape", `{"x":"\q"}`},
	{"unknown key short unicode escape", `{"x":"\u12"}`},
	{"unknown key raw control char", "{\"x\":\"a\x01b\"}"},
	{"depth at limit", `{"x":` + nested(9999) + `}`},
	{"depth past limit", `{"x":` + nested(10000) + `}`},
	{"depth at limit in array framing", `[{"x":` + nested(9999) + `}]`},
	{"depth past limit in array framing", `[{"x":` + nested(10000) + `}]`},
	{"id 1.0", `{"id":1.0}`},
	{"id -0", `{"id":-0}`},
	{"id 1e2", `{"id":1e2}`},
	{"id max uint64", `{"id":18446744073709551615}`},
	{"id past uint64", `{"id":18446744073709551616}`},
	{"priority -0", `{"priority":-0}`},
	{"priority past int64", `{"priority":9223372036854775808}`},
	{"priority min int64", `{"priority":-9223372036854775808}`},
	{"submit -0", `{"submit":-0}`},
	{"submit 1e400", `{"submit":1e400}`},
	{"submit 1e-400", `{"submit":1e-400}`},
	{"submit exponent forms", `{"submit":1E+2,"duration":2.5e-1,"cpu":0.000001,"mem":1e0}`},
	{"leading zero", `{"id":01}`},
	{"bare decimal point", `{"submit":1.}`},
	{"leading decimal point", `{"submit":.5}`},
	{"empty exponent", `{"submit":1e}`},
	{"plus sign", `{"submit":+1}`},
	{"minus alone", `{"submit":-}`},
	{"string into number", `{"cpu":"0.5"}`},
	{"number into string", `{"tenant":5}`},
	{"bool into number", `{"id":true}`},
	{"array into number", `{"id":[]}`},
	{"object into string", `{"tenant":{}}`},
	{"escapes", `{"tenant":"a\/b\"c\\d\b\f\n\r\t"}`},
	{"non-ASCII", `{"tenant":"é€😀"}`},
	{"unicode escape", `{"tenant":"\u00e9\u20AC"}`},
	{"surrogate pair", `{"tenant":"\ud83d\ude00"}`},
	{"lone high surrogate", `{"tenant":"\ud800x"}`},
	{"lone low surrogate", `{"tenant":"\udc00"}`},
	{"high surrogate then escape", `{"tenant":"\ud800\u0041"}`},
	{"invalid UTF-8", "{\"tenant\":\"a\xffb\xed\xa0\x80\"}"},
	{"invalid UTF-8 in key", "{\"i\xffd\":1}"},
	{"raw tab in string", "{\"tenant\":\"a\tb\"}"},
	{"repeated tenant", "{\"tenant\":\"web\"}\n{\"tenant\":\"web\"}\n{\"tenant\":\"api\"}\n{\"tenant\":\"web\"}"},
	{"ndjson", "{\"id\":1}\n{\"id\":2}\n"},
	{"concatenated", `{"id":1}{"id":2}`},
	{"null in stream", "{\"id\":1}\nnull\n{\"id\":2}"},
	{"null glued in stream", `{"id":1}null{"id":2}nullnull`},
	{"null alone", `null`},
	{"null in array", `[null,{"id":1}]`},
	{"number after object", `{"id":1} 42`},
	{"string after object", `{"id":1} "x"`},
	{"array after object", `{"id":1} []`},
	{"bracket after object", `{"id":1}]`},
	{"truncated null", `{"id":1} nul`},
	{"trailing comma in array", `[{"id":1},]`},
	{"missing comma in array", `[{"id":1} {"id":2}]`},
	{"leading comma in array", `[,{"id":1}]`},
	{"number in array", `[1]`},
	{"nested array in array", `[[]]`},
	{"brace closes array", `[}`},
	{"empty array", `[]`},
	{"spaced empty array", " [ \n] \t"},
	{"unterminated array", `[{"id":1}`},
	{"unterminated empty array", `[`},
	{"array then array", `[] []`},
	{"byte order mark", "\xef\xbb\xbf{\"id\":1}"},
	{"vertical tab is not whitespace", "\v{\"id\":1}"},
	{"form feed between values", "{\"id\":1}\f{\"id\":2}"},
	{"NUL after object", "{\"id\":1}\x00"},
	{"whitespace everywhere", "\r\n\t {\"id\" : 1 ,\n \"job\"\t:2 }\r\n"},
	{"unterminated object", `{"id":1`},
	{"unterminated key", `{"id`},
	{"missing colon", `{"id" 1}`},
	{"missing comma", `{"id":1 "job":2}`},
	{"trailing comma in object", `{"id":1,}`},
	{"bare comma", `{,}`},
	{"unquoted key", `{id:1}`},
	{"single-quoted string", `{"tenant":'a'}`},
	{"empty body", ``},
	{"blank body", " \n\t"},
}

func TestDecodeTasksMatchesEncodingJSON(t *testing.T) {
	for _, q := range decodeQuirks {
		t.Run(q.name, func(t *testing.T) {
			body := []byte(q.body)
			agreeWithOracle(t, body, bytes.NewReader(body))
			// One-byte reads grow the read buffer many times.
			agreeWithOracle(t, body, iotest.OneByteReader(bytes.NewReader(body)))
		})
	}
}

func TestDecodeTasksFormats(t *testing.T) {
	one := gratisTask(1, 10, 60)
	two := gratisTask(2, 20, 60)
	oneJSON, _ := json.Marshal(one)
	twoJSON, _ := json.Marshal(two)

	tests := []struct {
		name string
		body string
		want int
	}{
		{"single object", string(oneJSON), 1},
		{"array", fmt.Sprintf("[%s, %s]", oneJSON, twoJSON), 2},
		{"ndjson", taskNDJSON(one, two), 2},
		{"leading whitespace", "\n\t " + string(oneJSON), 1},
		{"empty array", "[]", 0},
		{"array then whitespace", fmt.Sprintf("[%s]\n \t", oneJSON), 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tasks, err := DecodeTasks(strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if len(tasks) != tc.want {
				t.Errorf("decoded %d tasks, want %d", len(tasks), tc.want)
			}
			if tc.want > 0 && tasks[0].ID != 1 {
				t.Errorf("first task = %+v", tasks[0])
			}
		})
	}

	// Trailing garbage is rejected after every form, arrays included.
	for _, bad := range []string{"", "   ", "not json", "42", `{"id":}`,
		string(oneJSON) + " garbage", fmt.Sprintf("[%s] garbage", oneJSON),
		fmt.Sprintf("[%s] ]", oneJSON), fmt.Sprintf("[%s] %s", oneJSON, twoJSON), "[] []"} {
		if _, err := DecodeTasks(strings.NewReader(bad)); err == nil {
			t.Errorf("decoded garbage %q", bad)
		}
	}
}

// FuzzDecodeTasks drives the ingest decoder with arbitrary bodies: it
// must never panic, it must accept and reject exactly what encoding/json
// does and decode the same tasks, an error must come with no tasks, and
// whatever it does accept must survive the round trip — the array form
// and the NDJSON form of the decoded tasks decode back to the same tasks.
func FuzzDecodeTasks(f *testing.F) {
	one, _ := json.Marshal(gratisTask(1, 10, 60))
	two, _ := json.Marshal(gratisTask(2, 20, 60))
	for _, seed := range []string{
		string(one),
		fmt.Sprintf("[%s, %s]", one, two),
		taskNDJSON(gratisTask(1, 10, 60), gratisTask(2, 20, 60)),
		"\n\t " + string(one),
		"[]",
		fmt.Sprintf("[%s] garbage", one),
		"", "   ", "not json", "42", `{"id":}`,
		`{"id":1,"constraint":"x86","tenant":"a"}`,
	} {
		f.Add([]byte(seed))
	}
	for _, q := range decodeQuirks {
		if len(q.body) < 1000 {
			f.Add([]byte(q.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		tasks := agreeWithOracle(t, body, bytes.NewReader(body))
		if len(tasks) == 0 {
			return // rejected, or "[]": there is no NDJSON spelling of zero tasks
		}
		array, err := json.Marshal(tasks)
		if err != nil {
			t.Fatalf("accepted tasks do not re-encode: %v", err)
		}
		fromArray, err := DecodeTasks(bytes.NewReader(array))
		if err != nil {
			t.Fatalf("array form rejected: %v\n%s", err, array)
		}
		fromNDJSON, err := DecodeTasks(strings.NewReader(taskNDJSON(tasks...)))
		if err != nil {
			t.Fatalf("NDJSON form rejected: %v", err)
		}
		if !reflect.DeepEqual(fromArray, tasks) || !reflect.DeepEqual(fromNDJSON, tasks) {
			t.Fatalf("forms disagree:\n decoded %+v\n array   %+v\n ndjson  %+v", tasks, fromArray, fromNDJSON)
		}
	})
}

// generatorBody encodes the first n tasks of a generated trace the way
// the online benchmark sends them: json.Encoder lines, each tagged with
// one of three one-letter tenants by job.
func generatorBody(tb testing.TB, n int) []byte {
	tb.Helper()
	cfg := trace.DefaultConfig(1)
	cfg.Horizon = 2 * trace.Hour
	tr, err := trace.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(tr.Tasks) < n {
		tb.Fatalf("trace has %d tasks, want %d", len(tr.Tasks), n)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, t := range tr.Tasks[:n] {
		t.Tenant = []string{"a", "b", "c"}[t.JobID%3]
		if err := enc.Encode(t); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

const benchBodyTasks = 448

// TestDecodeTasksAllocs lids the allocations of decoding a generator
// body: the read buffer and the task slice, not one per task.
func TestDecodeTasksAllocs(t *testing.T) {
	body := generatorBody(t, benchBodyTasks)
	agreeWithOracle(t, body, bytes.NewReader(body))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeTasks(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Errorf("%v allocations per %d-task body, want at most 32", allocs, benchBodyTasks)
	}
}

func BenchmarkDecodeTasks(b *testing.B) {
	body := generatorBody(b, benchBodyTasks)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTasks(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBodyTasks), "ns/task")
}
