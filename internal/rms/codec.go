// The wire codec: the JSON bytes of dynpd's hot messages — Request,
// Response with its JobInfo, Status and Quote payloads — and of every
// journal record, without reflection.
//
// encoding/json stays the reference. The appenders reproduce
// json.Marshal's output byte for byte; a string with anything to escape
// is quoted by encoding/json itself, and so is each rarely used field of
// a Response (report, trace, metrics, health, policies, deciders). The
// parser reads the canonical form the appenders emit: keys exactly as
// tagged and in declaration order, no whitespace, strings without
// escapes, integers without fraction or exponent. On a message that
// departs from it, it hands the whole input to encoding/json, which then
// decides the value and words every error, so a client that writes its
// JSON differently sees the protocol it always did. A journal record that
// departs from it is invalid. FuzzWireCodec holds both directions to
// encoding/json.
package rms

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"dynp/internal/job"
)

// appendString appends s quoted as json.Marshal quotes it. A string with
// nothing to escape — every name and message the scheduler produces — is
// copied; any other is quoted by encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendInt appends key, then v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendOmit appends key and v unless v is zero, as omitempty does.
func appendOmit(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, key, v)
}

func appendRequest(b []byte, r *Request) []byte {
	b = appendString(append(b, `{"op":`...), r.Op)
	b = appendOmit(b, `,"width":`, int64(r.Width))
	b = appendOmit(b, `,"estimate":`, r.Estimate)
	b = appendOmit(b, `,"id":`, r.ID)
	b = appendOmit(b, `,"to":`, r.To)
	b = appendOmit(b, `,"procs":`, int64(r.Procs))
	b = appendOmit(b, `,"n":`, int64(r.N))
	b = appendOmit(b, `,"count":`, int64(r.Count))
	if len(r.Completions) > 0 {
		b = append(b, `,"completions":[`...)
		for i, id := range r.Completions {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, id, 10)
		}
		b = append(b, ']')
	}
	if len(r.Subs) > 0 {
		b = append(b, `,"subs":[`...)
		for i, sub := range r.Subs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(b, `{"width":`, int64(sub.Width))
			b = appendInt(b, `,"estimate":`, sub.Estimate)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendEventRecord appends ev's journal record: checksum, space,
// payload, newline, the payload json.Marshal's of journalLine{Event: ev}.
// No journaled op reads n or count; the record leaves them out.
func appendEventRecord(b []byte, ev *Request) []byte {
	at := len(b)
	r := *ev
	r.N, r.Count = 0, 0
	b = appendRequest(append(b, "00000000 {\"event\":"...), &r)
	return sealRecord(append(b, '}'), at)
}

// appendHeaderRecord appends h's journal record, framed as
// appendEventRecord frames an event's.
func appendHeaderRecord(b []byte, h *journalHeader) []byte {
	at := len(b)
	b = appendInt(b, "00000000 {\"header\":{\"version\":", int64(h.Version))
	b = appendInt(b, `,"capacity":`, int64(h.Capacity))
	b = appendString(append(b, `,"scheduler":`...), h.Scheduler)
	b = appendInt(b, `,"start":`, h.Start)
	b = appendInt(b, `,"segment":`, int64(h.Segment))
	if h.Checkpoint {
		b = append(b, `,"checkpoint":true`...)
	}
	return sealRecord(append(b, "}}"...), at)
}

// appendCheckpointRecord appends cs's journal record, framed as
// appendEventRecord frames an event's, without encoding the finished
// history again: done, the JSON of cs.Done's jobs comma-joined (the
// scheduler's doneLog), is spliced in as it is, and so is cs.Driver, the
// tuner's own json.Marshal output.
func appendCheckpointRecord(b []byte, cs *checkpointState, done []byte) []byte {
	at := len(b)
	b = appendInt(b, "00000000 {\"checkpoint\":{\"events\":", cs.Events)
	b = appendInt(b, `,"now":`, cs.Now)
	b = appendInt(b, `,"next_id":`, cs.NextID)
	b = appendInt(b, `,"failed":`, int64(cs.Failed))
	if len(cs.Waiting) > 0 {
		b = appendJobInfos(append(b, `,"waiting":`...), cs.Waiting)
	}
	if len(cs.Running) > 0 {
		b = appendJobInfos(append(b, `,"running":`...), cs.Running)
	}
	if len(done) > 0 {
		b = append(append(append(b, `,"done":[`...), done...), ']')
	}
	if len(cs.Driver) > 0 {
		b = append(append(b, `,"driver":`...), cs.Driver...)
	}
	if len(cs.Transitions) > 0 {
		sep, names := byte('{'), make([]string, 0, len(cs.Transitions))
		for name := range cs.Transitions {
			names = append(names, name)
		}
		slices.Sort(names) // json.Marshal's order
		b = append(b, `,"transitions":`...)
		for _, name := range names {
			b = strconv.AppendInt(append(appendString(append(b, sep), name), ':'), cs.Transitions[name], 10)
			sep = ','
		}
		b = append(b, '}')
	}
	return sealRecord(append(b, "}}"...), at)
}

// sealRecord completes the record begun at b[at:], a checksum's place
// and its payload: it fills in the payload's checksum and ends the line.
func sealRecord(b []byte, at int) []byte {
	var sum [9]byte
	copy(b[at:], appendChecksum(sum[:0], crc32.Checksum(b[at+9:], crcTable)))
	return append(b, '\n')
}

func appendJobInfo(b []byte, v *JobInfo) []byte {
	b = appendInt(b, `{"ID":`, int64(v.ID))
	b = appendInt(b, `,"Width":`, int64(v.Width))
	b = appendInt(b, `,"Estimate":`, v.Estimate)
	b = appendInt(b, `,"Submitted":`, v.Submitted)
	b = appendInt(b, `,"State":`, int64(v.State))
	b = appendInt(b, `,"PlannedStart":`, v.PlannedStart)
	b = appendInt(b, `,"Started":`, v.Started)
	b = appendInt(b, `,"Finished":`, v.Finished)
	return append(b, '}')
}

// appendJobInfos appends a JobInfo list, null when nil.
func appendJobInfos(b []byte, v []JobInfo) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJobInfo(b, &v[i])
	}
	return append(b, ']')
}

func appendStatus(b []byte, st *Status) []byte {
	b = appendInt(b, `{"Now":`, st.Now)
	b = appendInt(b, `,"Capacity":`, int64(st.Capacity))
	b = appendInt(b, `,"FailedProcs":`, int64(st.FailedProcs))
	b = appendInt(b, `,"UsedProcs":`, int64(st.UsedProcs))
	b = appendString(append(b, `,"ActivePolicy":`...), st.ActivePolicy)
	b = appendString(append(b, `,"Scheduler":`...), st.Scheduler)
	b = appendJobInfos(append(b, `,"Waiting":`...), st.Waiting)
	b = appendJobInfos(append(b, `,"Running":`...), st.Running)
	b = appendInt(b, `,"Finished":`, int64(st.Finished))
	return append(b, '}')
}

func appendQuote(b []byte, q *Quote) []byte {
	b = appendInt(b, `{"width":`, int64(q.Width))
	b = appendInt(b, `,"estimate":`, q.Estimate)
	b = appendInt(b, `,"start":`, q.Start)
	b = appendInt(b, `,"finish":`, q.Finish)
	b = appendInt(b, `,"wait":`, q.Wait)
	return append(b, '}')
}

// appendResponse appends r as json.Marshal encodes it. The error is
// encoding/json's for a rarely used field it cannot encode (a NaN in a
// report); nothing else fails.
func appendResponse(b []byte, r *Response) ([]byte, error) {
	b = strconv.AppendBool(append(b, `{"ok":`...), r.OK)
	if r.Error != "" {
		b = appendString(append(b, `,"error":`...), r.Error)
	}
	if r.Busy {
		b = append(b, `,"busy":true`...)
	}
	if r.Job != nil {
		b = appendJobInfo(append(b, `,"job":`...), r.Job)
	}
	if len(r.Jobs) > 0 {
		b = appendJobInfos(append(b, `,"jobs":`...), r.Jobs)
	}
	if r.Status != nil {
		b = appendStatus(append(b, `,"status":`...), r.Status)
	}
	if len(r.Finished) > 0 {
		b = appendJobInfos(append(b, `,"finished":`...), r.Finished)
	}
	if r.Report != nil || len(r.Trace) > 0 || r.Metrics != nil || r.Health != nil || len(r.Policies) > 0 || len(r.Deciders) > 0 {
		for _, f := range []struct {
			key string
			set bool
			v   any
		}{
			{`,"report":`, r.Report != nil, r.Report},
			{`,"trace":`, len(r.Trace) > 0, r.Trace},
			{`,"metrics":`, r.Metrics != nil, r.Metrics},
			{`,"health":`, r.Health != nil, r.Health},
			{`,"policies":`, len(r.Policies) > 0, r.Policies},
			{`,"deciders":`, len(r.Deciders) > 0, r.Deciders},
		} {
			if !f.set {
				continue
			}
			v, err := json.Marshal(f.v)
			if err != nil {
				return b, err
			}
			b = append(append(b, f.key...), v...)
		}
	}
	if len(r.Quotes) > 0 {
		b = append(b, `,"quotes":[`...)
		for i := range r.Quotes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendQuote(b, &r.Quotes[i])
		}
		b = append(b, ']')
	}
	return append(appendInt(b, `,"now":`, r.Now), '}'), nil
}

// decodeRequest reads one request line into a zero r: the canonical form
// directly, anything else through encoding/json.
func decodeRequest(line []byte, r *Request) error {
	if parseRequest(line, r) {
		return nil
	}
	*r = Request{}
	return json.Unmarshal(line, r)
}

// decodeResponse reads one response line into a zero r: the canonical
// form directly, anything else through encoding/json.
func decodeResponse(line []byte, r *Response) error {
	if parseResponse(line, r) {
		return nil
	}
	*r = Response{}
	return json.Unmarshal(line, r)
}

// parseRequest reads a canonical request into a zero r. False means the
// input is not canonical and r holds a partial read.
func parseRequest(b []byte, r *Request) bool {
	p := parser{b: b}
	p.request(r)
	return p.done()
}

// parseResponse reads a canonical response into a zero r. False means the
// input is not canonical and r holds a partial read.
func parseResponse(b []byte, r *Response) bool {
	p := parser{b: b}
	p.response(r)
	return p.done()
}

// parseRecord reads the canonical payload of a journal record into l, zero
// but for an Event to read an event into. False means the input is not
// one, or sets other than one of l's fields, and l holds a partial read.
func parseRecord(b []byte, l *journalLine) bool {
	p := parser{b: b}
	set := 0
	p.object(recordKeys, func(k int) {
		set++
		switch k {
		case 0:
			l.Header = new(journalHeader)
			p.header(l.Header)
		case 1:
			if l.Event == nil {
				l.Event = new(Request)
			}
			p.request(l.Event)
		case 2:
			l.Checkpoint = new(checkpointState)
			p.checkpoint(l.Checkpoint)
		}
	})
	return p.done() && set == 1
}

// parser reads the canonical form into fresh values. Any departure from
// it sets bad; the caller then hands the input to encoding/json. Every
// value it accepts is one encoding/json decodes identically: a null reads
// as no value at all, as it does into a fresh value, and an empty array
// as an empty, non-nil slice.
type parser struct {
	b   []byte
	i   int
	bad bool
}

// done reports whether the whole input was read without a departure.
func (p *parser) done() bool { return !p.bad && p.i == len(p.b) }

func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *parser) want(c byte) {
	if !p.eat(c) {
		p.bad = true
	}
}

func (p *parser) literal(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// object reads one object whose keys are a subsequence of keys, calling
// field with each key's index to read its value.
func (p *parser) object(keys []string, field func(k int)) {
	if p.literal("null") {
		return
	}
	p.want('{')
	if p.bad || p.eat('}') {
		return
	}
	for next := 0; ; {
		k := p.key(keys, next)
		if p.bad {
			return
		}
		next = k + 1
		if !p.literal("null") {
			field(k)
		}
		if p.bad || !p.eat(',') {
			break
		}
	}
	p.want('}')
}

// key reads one of keys, searching from next on, and returns its index:
// a key that is unknown, differs in case, repeats or comes out of order
// is a departure.
func (p *parser) key(keys []string, next int) int {
	for k := next; k < len(keys); k++ {
		if p.literal(keys[k]) {
			return k
		}
	}
	p.bad = true
	return 0
}

// fields lists an object's keys as key reads them: quoted, with the colon.
func fields(names ...string) []string {
	keys := make([]string, len(names))
	for i, n := range names {
		keys[i] = `"` + n + `":`
	}
	return keys
}

// array reads one array, calling elem to read each element.
func (p *parser) array(elem func()) {
	p.want('[')
	if p.bad || p.eat(']') {
		return
	}
	for {
		elem()
		if p.bad || !p.eat(',') {
			break
		}
	}
	p.want(']')
}

// list reads an array of T, each element read by elem into a zero T,
// into one allocation of the array's length (see count).
func list[T any](p *parser, elem func(*T)) []T {
	out := make([]T, 0, p.count())
	p.array(func() {
		var zero T
		out = append(out, zero)
		elem(&out[len(out)-1])
	})
	return out
}

// count returns how many elements the array at the read position holds,
// up to its first ']': one per brace in a list of objects, one more than
// the commas in a list of integers. In the canonical form no element holds
// a bracket, a brace or a comma of its own, so the count is exact; on
// other input a wrong count only mis-sizes the slice list fills, element
// by element, all the same.
func (p *parser) count() int {
	rest := p.b[p.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	switch {
	case len(rest) <= 1: // "[]"
		return 0
	case rest[1] == '{':
		return bytes.Count(rest, []byte{'{'})
	}
	return bytes.Count(rest, []byte{','}) + 1
}

// str reads a string without escapes.
func (p *parser) str() string { return string(p.strBytes()) }

// op reads a request's op as str does, but returns the listed name it
// equals (opNames) instead of a fresh copy.
func (p *parser) op() string {
	s := p.strBytes()
	for _, name := range opNames {
		if string(s) == name {
			return name
		}
	}
	return string(s)
}

// strBytes reads a string without escapes, aliasing the input; raw UTF-8
// must be valid, as encoding/json would otherwise substitute U+FFFD.
func (p *parser) strBytes() []byte {
	p.want('"')
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		if c == '"' || c == '\\' || c < 0x20 {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	s := p.b[start:p.i]
	p.want('"')
	if p.bad || !ascii && !utf8.Valid(s) {
		p.bad = true
		return nil
	}
	return s
}

// int64 reads an integer: an optional minus, then digits without a
// leading zero, in range.
func (p *parser) int64() int64 {
	neg := p.eat('-')
	start := p.i
	var u uint64
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 && p.i-start < 20 {
		u = u*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	n := p.i - start
	if n == 0 || n > 19 || n > 1 && p.b[start] == '0' || neg && u > 1<<63 || !neg && u > math.MaxInt64 {
		p.bad = true
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

func (p *parser) int() int {
	v := p.int64()
	if int64(int(v)) != v {
		p.bad = true
	}
	return int(v)
}

func (p *parser) bool() bool {
	if p.literal("true") {
		return true
	}
	if !p.literal("false") {
		p.bad = true
	}
	return false
}

// rare reads the value of a rarely used field with encoding/json.
func (p *parser) rare(v any) {
	start := p.i
	p.skip()
	if p.bad || json.Unmarshal(p.b[start:p.i], v) != nil {
		p.bad = true
	}
}

// skip steps over one value, bracket- and string-aware but otherwise
// unvalidated: rare hands what it spans to encoding/json.
func (p *parser) skip() {
	depth := 0
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch c {
		case '"':
			for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
				if p.b[p.i] == '\\' {
					p.i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			if depth == 0 {
				return
			}
		}
		if depth < 0 {
			return // the enclosing object's brace ends a scalar
		}
		p.i++
		if depth == 0 && (c == '"' || c == '}' || c == ']') {
			break
		}
	}
	if p.i > len(p.b) {
		p.i, p.bad = len(p.b), true
	}
}

var (
	requestKeys    = fields("op", "width", "estimate", "id", "to", "procs", "n", "count", "completions", "subs")
	submissionKeys = fields("width", "estimate")
	recordKeys     = fields("header", "event", "checkpoint")
	headerKeys     = fields("version", "capacity", "scheduler", "start", "segment", "checkpoint")
	checkpointKeys = fields("events", "now", "next_id", "failed", "waiting", "running", "done", "driver", "transitions")
	jobInfoKeys    = fields("ID", "Width", "Estimate", "Submitted", "State", "PlannedStart", "Started", "Finished")
	statusKeys     = fields("Now", "Capacity", "FailedProcs", "UsedProcs", "ActivePolicy", "Scheduler", "Waiting", "Running", "Finished")
	quoteKeys      = fields("width", "estimate", "start", "finish", "wait")
	responseKeys   = fields("ok", "error", "busy", "job", "jobs", "status", "finished", "report", "trace", "metrics", "health", "policies", "deciders", "quotes", "now")
)

func (p *parser) request(r *Request) {
	p.object(requestKeys, func(k int) {
		switch k {
		case 0:
			r.Op = p.op()
		case 1:
			r.Width = p.int()
		case 2:
			r.Estimate = p.int64()
		case 3:
			r.ID = p.int64()
		case 4:
			r.To = p.int64()
		case 5:
			r.Procs = p.int()
		case 6:
			r.N = p.int()
		case 7:
			r.Count = p.int()
		case 8:
			r.Completions = list(p, func(v *int64) { *v = p.int64() })
		case 9:
			r.Subs = list(p, p.submission)
		}
	})
}

func (p *parser) submission(v *Submission) {
	p.object(submissionKeys, func(k int) {
		switch k {
		case 0:
			v.Width = p.int()
		case 1:
			v.Estimate = p.int64()
		}
	})
}

func (p *parser) jobInfo(v *JobInfo) {
	p.object(jobInfoKeys, func(k int) {
		switch k {
		case 0:
			v.ID = job.ID(p.int64())
		case 1:
			v.Width = p.int()
		case 2:
			v.Estimate = p.int64()
		case 3:
			v.Submitted = p.int64()
		case 4:
			v.State = JobState(p.int())
		case 5:
			v.PlannedStart = p.int64()
		case 6:
			v.Started = p.int64()
		case 7:
			v.Finished = p.int64()
		}
	})
}

func (p *parser) status(st *Status) {
	p.object(statusKeys, func(k int) {
		switch k {
		case 0:
			st.Now = p.int64()
		case 1:
			st.Capacity = p.int()
		case 2:
			st.FailedProcs = p.int()
		case 3:
			st.UsedProcs = p.int()
		case 4:
			st.ActivePolicy = p.str()
		case 5:
			st.Scheduler = p.str()
		case 6:
			st.Waiting = list(p, p.jobInfo)
		case 7:
			st.Running = list(p, p.jobInfo)
		case 8:
			st.Finished = p.int()
		}
	})
}

func (p *parser) quote(q *Quote) {
	p.object(quoteKeys, func(k int) {
		switch k {
		case 0:
			q.Width = p.int()
		case 1:
			q.Estimate = p.int64()
		case 2:
			q.Start = p.int64()
		case 3:
			q.Finish = p.int64()
		case 4:
			q.Wait = p.int64()
		}
	})
}

func (p *parser) response(r *Response) {
	p.object(responseKeys, func(k int) {
		switch k {
		case 0:
			r.OK = p.bool()
		case 1:
			r.Error = p.str()
		case 2:
			r.Busy = p.bool()
		case 3:
			r.Job = new(JobInfo)
			p.jobInfo(r.Job)
		case 4:
			r.Jobs = list(p, p.jobInfo)
		case 5:
			r.Status = new(Status)
			p.status(r.Status)
		case 6:
			r.Finished = list(p, p.jobInfo)
		case 7:
			p.rare(&r.Report)
		case 8:
			p.rare(&r.Trace)
		case 9:
			p.rare(&r.Metrics)
		case 10:
			p.rare(&r.Health)
		case 11:
			p.rare(&r.Policies)
		case 12:
			p.rare(&r.Deciders)
		case 13:
			r.Quotes = list(p, p.quote)
		case 14:
			r.Now = p.int64()
		}
	})
}

// header reads a journal header. The scheduler's name goes through
// encoding/json: a registered policy or decider may name it anything.
func (p *parser) header(h *journalHeader) {
	p.object(headerKeys, func(k int) {
		switch k {
		case 0:
			h.Version = p.int()
		case 1:
			h.Capacity = p.int()
		case 2:
			p.rare(&h.Scheduler)
		case 3:
			h.Start = p.int64()
		case 4:
			h.Segment = p.int()
		case 5:
			h.Checkpoint = p.bool()
		}
	})
}

func (p *parser) checkpoint(cs *checkpointState) {
	p.object(checkpointKeys, func(k int) {
		switch k {
		case 0:
			cs.Events = p.int64()
		case 1:
			cs.Now = p.int64()
		case 2:
			cs.NextID = p.int64()
		case 3:
			cs.Failed = p.int()
		case 4:
			cs.Waiting = list(p, p.jobInfo)
		case 5:
			cs.Running = list(p, p.jobInfo)
		case 6:
			cs.Done = list(p, p.jobInfo)
		case 7:
			p.rare(&cs.Driver)
		case 8:
			p.rare(&cs.Transitions)
		}
	})
}
