package rms

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"dynp/internal/policy"
	"dynp/internal/sim"
)

// FuzzServeConn throws arbitrary bytes at the wire protocol and asserts
// the server's contract: it never panics, answers every complete request
// line with exactly one line of well-formed JSON, and leaves the
// scheduler in a consistent state afterwards.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte(`{"op":"submit","width":4,"estimate":100}` + "\n"))
	f.Add([]byte(`{"op":"status"}` + "\n" + `{"op":"report"}` + "\n"))
	f.Add([]byte(`{"op":"tick","to":50}` + "\n" + `{"op":"finished"}` + "\n"))
	f.Add([]byte(`{"op":"fail","procs":3}` + "\n" + `{"op":"restore","procs":3}` + "\n"))
	f.Add([]byte(`{"op":"done","id":1}` + "\n" + `{"op":"cancel","id":-1}` + "\n"))
	f.Add([]byte("not json\n\n{broken\n"))
	f.Add([]byte(`{"op":"submit","width":-4,"estimate":-100}` + "\n"))
	f.Add([]byte{0xff, 0xfe, '\n', '{', '}', '\n'})
	f.Add([]byte(`{"op":"tick","to":9223372036854775807}` + "\n"))
	f.Add([]byte(`{"op":"quote","width":4,"estimate":100,"count":2}` + "\n"))
	f.Add([]byte(`{"op":"quote","width":-1,"estimate":0,"count":1025}` + "\n"))
	// Requests the wire codec hands to encoding/json (see codec.go).
	f.Add([]byte(strings.Join(nonCanonical, "\n") + "\n"))
	for _, line := range nonCanonical {
		f.Add([]byte(line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(8, &sim.Static{Policy: policy.FCFS}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EnableQuotes(func() sim.Driver { return &sim.Static{Policy: policy.FCFS} }); err != nil {
			t.Fatal(err)
		}
		sv := NewServer(s, true)
		var out bytes.Buffer
		rw := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), &out}
		_ = sv.ServeConn(rw) // errors are fine; panics are not

		// Every emitted line must be a well-formed Response.
		responses := 0
		for _, line := range strings.Split(out.String(), "\n") {
			if line == "" {
				continue
			}
			var resp Response
			if err := json.Unmarshal([]byte(line), &resp); err != nil {
				t.Fatalf("malformed response line %q: %v", line, err)
			}
			if !resp.OK && resp.Error == "" {
				t.Fatalf("failure response without an error message: %q", line)
			}
			responses++
		}
		// One response per non-empty line — bufio.Scanner also delivers a
		// final line without a trailing newline — unless a line blew the
		// 64 KiB cap (that path answers once and stops). Stay clear of
		// exact-cap boundary lines, where \r-stripping makes the count
		// ambiguous.
		requests := 0
		overlong := false
		for _, line := range strings.Split(string(data), "\n") {
			if len(line) >= 1<<16-1 {
				overlong = true
				break
			}
			if strings.TrimSuffix(line, "\r") != "" {
				requests++
			}
		}
		if !overlong && responses != requests {
			t.Fatalf("%d responses for %d complete requests", responses, requests)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("scheduler corrupted by fuzzed input: %v", err)
		}
	})
}
