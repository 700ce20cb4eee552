package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzVerbs are the POST verbs of the wire protocol, indexed by the
// fuzzer's verb byte.
var fuzzVerbs = []string{"lease", "heartbeat", "complete", "fail"}

// FuzzFabricBody drives Coordinator.Handler with arbitrary bodies, in
// process through httptest.NewRecorder: no network, and no experiment
// runs. The coordinator holds one task, E1, leased to worker w1 as
// lease L1-w1. Properties: no input panics; an accepted body is one
// JSON value; a complete the handler accepts leaves a result that
// Assemble decodes to at least one table; and a refused request (any
// status of 300 or more) answers with a JSON error and leaves Stats and
// the task's Result as they were. The committed corpus holds a valid
// lease, heartbeat, complete and fail body, an unknown field, a second
// object after the first, results null, 5 and [], and a truncated body.
func FuzzFabricBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, verb byte, body []byte) {
		c, err := NewCoordinator([]Task{expTask("E1")}, filepath.Join(t.TempDir(), "ledger.jsonl"), testOptions(newFakeClock()))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if r, err := c.Lease("w1"); err != nil || r.LeaseID != "L1-w1" {
			t.Fatalf("lease: %+v, %v", r, err)
		}
		path := "/v1/fabric/" + fuzzVerbs[int(verb)%len(fuzzVerbs)]
		before := c.Stats()
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		if rec.Code < 300 && !json.Valid(body) {
			t.Fatalf("accepted %s (%d) with a body that is not one JSON value: %q", path, rec.Code, body)
		}
		result, committed := c.Result("E1/scale=1")
		switch {
		case rec.Code >= 300:
			if after := c.Stats(); !reflect.DeepEqual(after, before) || committed {
				t.Fatalf("refused %s (%d) changed the coordinator: stats %+v -> %+v, result %s",
					path, rec.Code, before, after, result)
			}
		case committed:
			res, err := Assemble(c)
			if err != nil || len(res.Experiments) != 1 || len(res.Experiments[0].Tables) == 0 {
				t.Fatalf("accepted %s committed %s, which assembles to %+v, %v", path, result, res, err)
			}
		}
		var msg struct{ Error string }
		if rec.Code >= 300 && (json.Unmarshal(rec.Body.Bytes(), &msg) != nil || msg.Error == "") {
			t.Fatalf("refused %s (%d) without a JSON error: %q", path, rec.Code, rec.Body.Bytes())
		}
	})
}
