package rms

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
	"dynp/internal/sim"
)

// nonCanonical are request lines the codec's parser hands to
// encoding/json — a key in another case, reordered keys, whitespace,
// numbers with a fraction or exponent or out of range, duplicate and
// unknown keys, escapes, invalid UTF-8, null, trailing bytes — with
// canonical lines among them. nonCanonicalAnswers are the responses the
// server gave them before the codec existed, when encoding/json read
// every request and wrote every response.
var (
	nonCanonical = []string{
		`{"OP":"status"}`,
		`{"op":"status"}`,
		`{"estimate":100,"op":"submit","width":4}`,
		`{ "op" : "submit" , "width" : 2 , "estimate" : 50 }`,
		"\t{\"op\":\"submit\",\"width\":1,\"estimate\":30}  ",
		`{"op":"submit","width":1e2,"estimate":10}`,
		`{"op":"submit","width":1.0,"estimate":10}`,
		`{"op":"st\u0061tus"}`,
		`{"op":"status","extra":[1,{"a":"}"}]}`,
		`{"op":"submit","width":99999999999999999999,"estimate":1}`,
		`{"op":"submit","width":2,"width":3,"estimate":5}`,
		`{"Op":"job","ID":1}`,
		`{"op":"deliver","to":5,"subs":[{"Width":1,"Estimate":10}]}`,
		`{"op":"deliver","to":6,"completions":null,"subs":[]}`,
		`{"op":"tick","to":-0}`,
		`null`,
		`{"op":"status"}x`,
		`{"op":"quote","width":04,"estimate":100}`,
		`{"op":"quote","estimate":100,"width":4,"count":2}`,
		`{"op":"job","id":"1"}`,
		`{"op":"done","id":1,}`,
		"{\"op\":\"stat\xffus\"}",
		`{"op":"status"`,
		`[]`,
	}
	nonCanonicalAnswers = []string{
		`{"ok":true,"status":{"Now":0,"Capacity":8,"FailedProcs":0,"UsedProcs":0,"ActivePolicy":"FCFS","Scheduler":"FCFS","Waiting":null,"Running":null,"Finished":0},"now":0}`,
		`{"ok":true,"status":{"Now":0,"Capacity":8,"FailedProcs":0,"UsedProcs":0,"ActivePolicy":"FCFS","Scheduler":"FCFS","Waiting":null,"Running":null,"Finished":0},"now":0}`,
		`{"ok":true,"job":{"ID":1,"Width":4,"Estimate":100,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},"now":0}`,
		`{"ok":true,"job":{"ID":2,"Width":2,"Estimate":50,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},"now":0}`,
		`{"ok":true,"job":{"ID":3,"Width":1,"Estimate":30,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},"now":0}`,
		`{"ok":false,"error":"rms: bad request: json: cannot unmarshal number 1e2 into Go struct field Request.width of type int","now":0}`,
		`{"ok":false,"error":"rms: bad request: json: cannot unmarshal number 1.0 into Go struct field Request.width of type int","now":0}`,
		`{"ok":true,"status":{"Now":0,"Capacity":8,"FailedProcs":0,"UsedProcs":7,"ActivePolicy":"FCFS","Scheduler":"FCFS","Waiting":null,"Running":[{"ID":1,"Width":4,"Estimate":100,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},{"ID":2,"Width":2,"Estimate":50,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},{"ID":3,"Width":1,"Estimate":30,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0}],"Finished":0},"now":0}`,
		`{"ok":true,"status":{"Now":0,"Capacity":8,"FailedProcs":0,"UsedProcs":7,"ActivePolicy":"FCFS","Scheduler":"FCFS","Waiting":null,"Running":[{"ID":1,"Width":4,"Estimate":100,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},{"ID":2,"Width":2,"Estimate":50,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},{"ID":3,"Width":1,"Estimate":30,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0}],"Finished":0},"now":0}`,
		`{"ok":false,"error":"rms: bad request: json: cannot unmarshal number 99999999999999999999 into Go struct field Request.width of type int","now":0}`,
		`{"ok":true,"job":{"ID":4,"Width":3,"Estimate":5,"Submitted":0,"State":0,"PlannedStart":50,"Started":0,"Finished":0},"now":0}`,
		`{"ok":true,"job":{"ID":1,"Width":4,"Estimate":100,"Submitted":0,"State":1,"PlannedStart":0,"Started":0,"Finished":0},"now":0}`,
		`{"ok":true,"jobs":[{"ID":5,"Width":1,"Estimate":10,"Submitted":5,"State":1,"PlannedStart":5,"Started":5,"Finished":0}],"now":5}`,
		`{"ok":true,"now":6}`,
		`{"ok":false,"error":"rms: cannot advance from 6 back to 0","now":6}`,
		`{"ok":false,"error":"rms: unknown op \"\"","now":6}`,
		`{"ok":false,"error":"rms: bad request: invalid character 'x' after top-level value","now":6}`,
		`{"ok":false,"error":"rms: bad request: invalid character '4' after object key:value pair","now":6}`,
		`{"ok":true,"quotes":[{"width":4,"estimate":100,"start":55,"finish":155,"wait":49},{"width":4,"estimate":100,"start":100,"finish":200,"wait":94}],"now":6}`,
		`{"ok":false,"error":"rms: bad request: json: cannot unmarshal string into Go struct field Request.id of type int64","now":6}`,
		`{"ok":false,"error":"rms: bad request: invalid character '}' looking for beginning of object key string","now":6}`,
		"{\"ok\":false,\"error\":\"rms: unknown op \\\"stat\uFFFDus\\\"\",\"now\":6}",
		`{"ok":false,"error":"rms: bad request: unexpected end of JSON input","now":6}`,
		`{"ok":false,"error":"rms: bad request: json: cannot unmarshal array into Go value of type rms.Request","now":6}`,
	}
)

// TestNonCanonicalRequests: requests written other than as the codec
// writes them get, byte for byte, the answers encoding/json gave them.
func TestNonCanonicalRequests(t *testing.T) {
	s, err := New(8, &sim.Static{Policy: policy.FCFS}, 0)
	if err == nil {
		err = s.EnableQuotes(func() sim.Driver { return &sim.Static{Policy: policy.FCFS} })
	}
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{strings.NewReader(strings.Join(nonCanonical, "\n") + "\n"), &out}
	if err := NewServer(s, true).ServeConn(rw); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(got) != len(nonCanonicalAnswers) {
		t.Fatalf("%d answers for %d requests", len(got), len(nonCanonicalAnswers))
	}
	for i, want := range nonCanonicalAnswers {
		if got[i] != want {
			t.Errorf("request %q\n got: %s\nwant: %s", nonCanonical[i], got[i], want)
		}
	}
}

// TestWireFastPath: everything the client sends and everything the server
// and its journal write over the seeded plantest streams, which the stream
// interpreter sends through a Client over net.Pipe to a dynP daemon, is
// read by the codec's own parser, without handing a line to
// encoding/json — a parser that always handed off would pass every other
// correctness test — and read as encoding/json reads it.
func TestWireFastPath(t *testing.T) {
	var requests, responses, events int
	for seed := uint64(0); seed < 3; seed++ {
		ds := tunerStream(t, plantest.Capacity, func() core.Decider { return core.Advanced{} })
		ds.newDriver = func(*plantest.Lanes) (sim.Driver, *sim.DynP, *plantest.Tuner) {
			return sim.NewDynP(core.Advanced{}), nil, nil
		}
		ds.wire = new(wireTap)
		end := runDeliverLockstep(t, ds, decodeStream(plantest.Stream(seed)))
		var records [][]byte
		segments, _ := end.fs.ReadDir(".")
		for _, seg := range segments {
			records = append(records, lines(end.fs.files[seg.Name()])...)
		}
		for _, line := range lines(ds.wire.in.Bytes()) {
			requests++
			var fast, ref Request
			if !parseRequest(line, &fast) {
				t.Fatalf("request handed off: %s", line)
			}
			if err := json.Unmarshal(line, &ref); err != nil || !reflect.DeepEqual(fast, ref) {
				t.Fatalf("request %s: parsed %+v, encoding/json %+v (%v)", line, fast, ref, err)
			}
		}
		for _, line := range lines(ds.wire.out.Bytes()) {
			responses++
			var fast, ref Response
			if !parseResponse(line, &fast) {
				t.Fatalf("response handed off: %s", line)
			}
			if err := json.Unmarshal(line, &ref); err != nil || !reflect.DeepEqual(fast, ref) {
				t.Fatalf("response %s: parsed %+v, encoding/json %+v (%v)", line, fast, ref, err)
			}
		}
		for _, rec := range records {
			var ref journalLine
			if err := json.Unmarshal(rec[9:], &ref); err != nil { // past the checksum
				t.Fatalf("journal record %s: %v", rec, err)
			}
			got, ok := decodeRecord(rec)
			if !ok {
				t.Fatalf("journal record does not read: %s", rec)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("journal record %s: read %+v, encoding/json %+v", rec, got, ref)
			}
			if ref.Event != nil {
				events++
			}
		}
	}
	t.Logf("%d requests, %d responses, %d journal events on the fast path", requests, responses, events)
	if requests < 3000 || responses != requests || events < 1000 {
		t.Fatalf("%d requests, %d responses, %d journal events: the streams did not run", requests, responses, events)
	}
}

func lines(b []byte) [][]byte {
	return bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
}

// wireGen builds values from fuzz input: each byte of data picks the next
// integer, string or list length from a small menu that includes the
// fuzzed string and integers, the extremes and the empty and nil cases.
type wireGen struct {
	data []byte
	s    string
	a, b int64
}

func (g *wireGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	c := g.data[0]
	g.data = g.data[1:]
	return c
}

func (g *wireGen) int() int64 {
	switch c := g.next(); c % 8 {
	case 0:
		return 0
	case 1:
		return g.a
	case 2:
		return g.b
	case 3:
		return -g.a
	case 4:
		return math.MaxInt64
	case 5:
		return math.MinInt64
	default:
		return int64(c) - 128
	}
}

func (g *wireGen) str() string {
	switch g.next() % 4 {
	case 0:
		return ""
	case 1:
		return g.s
	case 2:
		return "dynP/advanced"
	default:
		return "<a&b>\u2028\"\\\x01\xff" + g.s
	}
}

// n is a list length, or -1 for a nil list.
func (g *wireGen) n() int { return int(g.next()%5) - 1 }

func genList[T any](g *wireGen, elem func() T) []T {
	n := g.n()
	if n < 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (g *wireGen) jobInfo() JobInfo {
	return JobInfo{ID: job.ID(g.int()), Width: int(g.int()), Estimate: g.int(), Submitted: g.int(),
		State: JobState(g.int()), PlannedStart: g.int(), Started: g.int(), Finished: g.int()}
}

// checkpoint builds a checkpoint state: its driver state is JSON as the
// tuner writes it, and its transition counts are keyed by any string.
func (g *wireGen) checkpoint(t *testing.T) checkpointState {
	cs := checkpointState{Events: g.int(), Now: g.int(), NextID: g.int(), Failed: int(g.int()),
		Waiting: genList(g, g.jobInfo), Running: genList(g, g.jobInfo), Done: genList(g, g.jobInfo)}
	if g.next()%2 == 0 {
		var err error
		if cs.Driver, err = json.Marshal(map[string]any{"active": g.str(), "cases": map[string]int64{g.str(): g.int()}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := g.n(); n >= 0 {
		cs.Transitions = make(map[string]int64)
		for range n {
			cs.Transitions[g.str()] = g.int()
		}
	}
	return cs
}

func (g *wireGen) request() Request {
	return Request{Op: g.str(), Width: int(g.int()), Estimate: g.int(), ID: g.int(), To: g.int(),
		Procs: int(g.int()), N: int(g.int()), Count: int(g.int()),
		Completions: genList(g, g.int),
		Subs:        genList(g, func() Submission { return Submission{Width: int(g.int()), Estimate: g.int()} })}
}

func (g *wireGen) response() Response {
	r := Response{OK: g.next()%2 == 0, Error: g.str(), Busy: g.next()%2 == 0, Now: g.int(),
		Jobs: genList(g, g.jobInfo), Finished: genList(g, g.jobInfo),
		Quotes:   genList(g, func() Quote { return Quote{int(g.int()), g.int(), g.int(), g.int(), g.int()} }),
		Policies: genList(g, g.str), Deciders: genList(g, g.str),
		Trace: genList(g, func() TraceEvent {
			return TraceEvent{Seq: uint64(g.int()), Kind: g.str(), Time: g.int(), Policy: g.str(), Case: g.str()}
		})}
	if g.next()%2 == 0 {
		info := g.jobInfo()
		r.Job = &info
	}
	if g.next()%2 == 0 {
		r.Status = &Status{Now: g.int(), Capacity: int(g.int()), FailedProcs: int(g.int()), UsedProcs: int(g.int()),
			ActivePolicy: g.str(), Scheduler: g.str(), Waiting: genList(g, g.jobInfo), Running: genList(g, g.jobInfo),
			Finished: int(g.int())}
	}
	if g.next()%2 == 0 {
		r.Report = &Report{Now: g.int(), Jobs: int(g.int()), SLDwA: math.Float64frombits(uint64(g.a)), Util: float64(g.b) / 3}
	}
	if g.next()%2 == 0 {
		r.Metrics = &EngineMetrics{Events: map[string]int64{g.str(): g.int(), "plan": g.int()}, Plans: g.int()}
	}
	if g.next()%2 == 0 {
		r.Health = &HealthInfo{Ready: g.next()%2 == 0, Reason: g.str(), QueueDepth: int(g.int())}
	}
	return r
}

// checkDecode holds the codec's reading of line to encoding/json's, for
// each thing it reads: parsed without the hand-off, the value must be
// json.Unmarshal's, and through the decode functions value and error text
// must be too. With canonical set, the line must not be handed off.
func checkDecode(t *testing.T, line []byte, canonical bool) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var req, reqRef, reqDec Request
	reqOK := parseRequest(line, &req)
	reqErr := json.Unmarshal(line, &reqRef)
	if reqOK && (reqErr != nil || !reflect.DeepEqual(req, reqRef)) {
		t.Fatalf("request %q: parsed %+v, encoding/json %+v (%v)", line, req, reqRef, reqErr)
	}
	if err := decodeRequest(line, &reqDec); errText(err) != errText(reqErr) || !reflect.DeepEqual(reqDec, reqRef) {
		t.Fatalf("request %q: decoded %+v (%v), encoding/json %+v (%v)", line, reqDec, err, reqRef, reqErr)
	}

	var resp, respRef, respDec Response
	respOK := parseResponse(line, &resp)
	respErr := json.Unmarshal(line, &respRef)
	if respOK && (respErr != nil || !reflect.DeepEqual(resp, respRef)) {
		t.Fatalf("response %q: parsed %+v, encoding/json %+v (%v)", line, resp, respRef, respErr)
	}
	if err := decodeResponse(line, &respDec); errText(err) != errText(respErr) || !reflect.DeepEqual(respDec, respRef) {
		t.Fatalf("response %q: decoded %+v (%v), encoding/json %+v (%v)", line, respDec, err, respRef, respErr)
	}

	var ev Request
	l := journalLine{Event: &ev}
	evOK := parseRecord(line, &l) && l.Header == nil && l.Checkpoint == nil
	var rec journalLine
	recErr := json.Unmarshal(line, &rec)
	if evOK && (recErr != nil || rec.Header != nil || rec.Checkpoint != nil || rec.Event == nil || !reflect.DeepEqual(ev, *rec.Event)) {
		t.Fatalf("event record %q: parsed %+v, encoding/json %+v (%v)", line, ev, rec, recErr)
	}
	if canonical && !reqOK && !respOK && !evOK {
		t.Fatalf("canonical %q handed off", line)
	}
	// On canonical input the parser sizes every list it reads itself
	// before filling it; the rarely used fields are encoding/json's.
	if canonical && (reqOK && (roomy(req.Completions) || roomy(req.Subs)) ||
		respOK && (roomy(resp.Jobs) || roomy(resp.Finished) || roomy(resp.Quotes) ||
			resp.Status != nil && (roomy(resp.Status.Waiting) || roomy(resp.Status.Running))) ||
		evOK && (roomy(ev.Completions) || roomy(ev.Subs))) {
		t.Fatalf("canonical %q: a list decoded with room to spare", line)
	}
}

// checkRecord holds rec, the journal's record of l, to json.Marshal's
// framing of l, and its reading back to json.Unmarshal's: decodeRecord
// reads what json.Unmarshal reads, and that appends to rec again unless
// json.Marshal replaced invalid UTF-8 in l. An event whose op needed
// escaping is the one record the codec does not read: every journaled op
// is a listed name.
func checkRecord(t *testing.T, rec []byte, l *journalLine) {
	t.Helper()
	if want := marshalRecord(t, l); !bytes.Equal(rec, want) {
		t.Fatalf("journal record:\n appended %s\n  marshal %s", rec, want)
	}
	got, ok := decodeRecord(rec[:len(rec)-1])
	if !ok {
		if l.Event == nil || !bytes.ContainsRune(rec, '\\') {
			t.Fatalf("journal record %s does not read back", rec)
		}
		return
	}
	var ref journalLine
	if err := json.Unmarshal(rec[9:len(rec)-1], &ref); err != nil || !reflect.DeepEqual(got, ref) {
		t.Fatalf("journal record %s:\n read %+v\n json %+v (%v)", rec, got, ref, err)
	}
	if again := appendRecord(nil, &got); !bytes.Equal(again, rec) && !bytes.Contains(rec, []byte(`\ufffd`)) {
		t.Fatalf("journal record %s reads back as %+v, which appends as %s", rec, got, again)
	}
}

// appendRecord appends l's record as the journal does, a checkpoint's
// history log made from its Done list.
func appendRecord(b []byte, l *journalLine) []byte {
	switch {
	case l.Header != nil:
		return appendHeaderRecord(b, l.Header)
	case l.Event != nil:
		return appendEventRecord(b, l.Event)
	}
	var done []byte
	for i := range l.Checkpoint.Done {
		if i > 0 {
			done = append(done, ',')
		}
		done = appendJobInfo(done, &l.Checkpoint.Done[i])
	}
	return appendCheckpointRecord(b, l.Checkpoint, done)
}

// roomy reports whether s has capacity beyond its length.
func roomy[T any](s []T) bool { return cap(s) != len(s) }

// FuzzWireCodec holds the codec to encoding/json in both directions. For
// arbitrary bytes the parser either hands off or yields exactly what
// json.Unmarshal yields (reflect.DeepEqual, so null and [] differ). For
// values built from the input — strings with <>&, quotes, control bytes,
// invalid UTF-8 and U+2028 among them — every appender's bytes are
// json.Marshal's, and read back without the hand-off unless a string in
// them needed escaping. Every journal record — header, event, checkpoint —
// is json.Marshal's framed, and reads back (checkRecord).
func FuzzWireCodec(f *testing.F) {
	for _, line := range nonCanonical {
		f.Add([]byte(line), "", int64(0), int64(0))
	}
	for _, line := range nonCanonicalAnswers {
		f.Add([]byte(line), "FCFS", int64(1), int64(-1))
	}
	f.Add([]byte(`{"event":{"op":"deliver","to":50,"completions":[7,8],"subs":[{"width":2,"estimate":60}]}}`), "SJF", int64(50), int64(7))
	f.Add([]byte(`{"ok":true,"report":{"Now":1,"SLDwA":1.5e+300},"trace":[{"seq":1,"kind":"plan"}],"health":{"ready":true},"policies":["a\"b"],"now":0}`), "x", int64(3), int64(1<<40))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, "é\u2028<&>", int64(math.MaxInt64), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, data []byte, s string, a, b int64) {
		checkDecode(t, data, false)

		g := &wireGen{data: data, s: s, a: a, b: b}
		check := func(what string, got []byte, v any) {
			t.Helper()
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatalf("%s: json.Marshal: %v", what, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s:\n appended %s\n  marshal %s", what, got, want)
			}
		}
		req := g.request()
		line := appendRequest(nil, &req)
		check("request", line, &req)
		checkDecode(t, line, !bytes.ContainsRune(line, '\\'))
		info := g.jobInfo()
		check("job", appendJobInfo(nil, &info), &info)
		q := Quote{int(g.int()), g.int(), g.int(), g.int(), g.int()}
		check("quote", appendQuote(nil, &q), &q)
		st := Status{Now: g.int(), ActivePolicy: g.str(), Scheduler: g.str(), Waiting: genList(g, g.jobInfo)}
		check("status", appendStatus(nil, &st), &st)

		// Each record is appended behind bytes already in the buffer. The
		// record of a request is that of the request less n and count.
		ev := req
		ev.N, ev.Count = 0, 0
		h := journalHeader{Version: int(g.int()), Capacity: int(g.int()), Scheduler: g.str(), Start: g.int(),
			Segment: int(g.int()), Checkpoint: g.next()%2 == 0}
		cs := g.checkpoint(t)
		rec := appendEventRecord([]byte("prefix"), &req)[len("prefix"):]
		checkRecord(t, rec, &journalLine{Event: &ev})
		checkDecode(t, rec[9:len(rec)-1], !bytes.ContainsRune(rec, '\\'))
		for _, l := range []journalLine{{Header: &h}, {Checkpoint: &cs}} {
			checkRecord(t, appendRecord([]byte("prefix"), &l)[len("prefix"):], &l)
		}

		resp := g.response()
		got, gotErr := appendResponse(nil, &resp)
		_, wantErr := json.Marshal(&resp)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("response: append error %v, json.Marshal error %v", gotErr, wantErr)
		}
		if wantErr == nil {
			check("response", got, &resp)
			checkDecode(t, got, !bytes.ContainsRune(got, '\\'))
		}
	})
}

// TestWireDecodeAllocs pins what the parser allocates: every list it
// reads is one allocation of its exact length, however long, so the
// 40-job status response decodes in six allocations (the response, its
// status, two lists and two strings), and a deliver request or a journal
// event record costs one allocation per list over the same line without
// lists, which costs none: the op is a listed name, and the record is
// parsed into a value of the caller's.
func TestWireDecodeAllocs(t *testing.T) {
	_, line := statusResponse(t)
	var resp Response
	if n := testing.AllocsPerRun(100, func() {
		resp = Response{}
		if !parseResponse(line, &resp) {
			t.Fatal("status response handed off")
		}
	}); n > 6 {
		t.Errorf("a 40-job status response decodes in %.0f allocations, want at most 6", n)
	}

	// decodes returns what decoding a deliver request of n completions
	// and n submissions allocates, and what its journal event record does.
	decodes := func(n int) (req, ev float64) {
		r := Request{Op: "deliver", To: 50}
		for i := 0; i < n; i++ {
			r.Completions = append(r.Completions, int64(100+i))
			r.Subs = append(r.Subs, Submission{Width: 1 + i%8, Estimate: int64(60 + i)})
		}
		line := appendRequest(nil, &r)
		rec := appendEventRecord(nil, &r)
		rec = rec[:len(rec)-1]
		var into Request
		req = testing.AllocsPerRun(100, func() {
			into = Request{}
			if !parseRequest(line, &into) {
				t.Fatalf("request handed off: %s", line)
			}
		})
		ev = testing.AllocsPerRun(100, func() {
			into = Request{}
			if !decodeEvent(rec, &into) {
				t.Fatalf("journal event does not read: %s", rec)
			}
		})
		return req, ev
	}
	req0, ev0 := decodes(0)
	if req0 != 0 || ev0 != 0 {
		t.Errorf("a deliver request without lists decodes in %.0f allocations and its journal event in %.0f, want 0 and 0 (the op is a listed name, the event a value of the caller's)",
			req0, ev0)
	}
	for _, n := range []int{1, 3, 300} {
		if req, ev := decodes(n); req != req0+2 || ev != ev0+2 {
			t.Errorf("with %d completions and %d submissions a deliver request decodes in %.0f allocations and its journal event in %.0f, want %.0f and %.0f: one more per list",
				n, n, req, ev, req0+2, ev0+2)
		}
	}
}
