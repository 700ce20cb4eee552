package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/bench"
)

// The wire protocol: four POST verbs plus a status probe, mounted
// under /v1/fabric/ on cmd/pramd (or any mux). Bodies are JSON both
// ways; ErrLeaseExpired crosses the wire as 410 Gone. A request body is
// one JSON object with no unknown field, and a completion's result is a
// list of at least one table, or the request gets 400.

type leaseRequest struct {
	Worker string `json:"worker"`
}

type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

type completeRequest struct {
	LeaseID string          `json:"lease_id"`
	TaskKey string          `json:"task_key"`
	Result  json.RawMessage `json:"result"`
}

type failRequest struct {
	LeaseID string `json:"lease_id"`
	TaskKey string `json:"task_key"`
	Cause   string `json:"cause"`
}

// maxBodyBytes bounds request bodies; result payloads are experiment
// tables, comfortably under this.
const maxBodyBytes = 16 << 20

// Handler returns the coordinator's HTTP surface:
//
//	POST /v1/fabric/lease      {"worker":W}                  -> LeaseReply
//	POST /v1/fabric/heartbeat  {"lease_id":L}                -> 204 | 410
//	POST /v1/fabric/complete   {"lease_id":L,"task_key":K,"result":...} -> 204
//	POST /v1/fabric/fail       {"lease_id":L,"task_key":K,"cause":...}  -> 204
//	GET  /v1/fabric/status                                   -> Stats
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fabric/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Worker == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("fabric: lease request names no worker"))
			return
		}
		reply, err := c.Lease(req.Worker)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, reply)
	})
	mux.HandleFunc("POST /v1/fabric/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.LeaseID); err != nil {
			if errors.Is(err, ErrLeaseExpired) {
				httpError(w, http.StatusGone, err)
				return
			}
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/fabric/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := checkResult(req.Result); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if err := c.Complete(req.LeaseID, req.TaskKey, req.Result); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/fabric/fail", func(w http.ResponseWriter, r *http.Request) {
		var req failRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Fail(req.LeaseID, req.TaskKey, req.Cause); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/fabric/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	return mux
}

// decodeBody decodes a request body that holds exactly one JSON object
// of out's shape, answering 400 to anything else: a body that does not
// decode, an unknown field, or data after the object.
func decodeBody(w http.ResponseWriter, r *http.Request, out any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(out)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("data after the request object")
		}
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("fabric: decode request: %w", err))
		return false
	}
	return true
}

// checkResult refuses a completion whose result is not what a worker
// sends: a JSON array of at least one bench.Table, decoded as Assemble
// decodes it. Anything else would commit, and be cached in the ledger,
// as an experiment with no tables.
func checkResult(raw json.RawMessage) error {
	var tables []bench.Table
	if err := json.Unmarshal(raw, &tables); err != nil {
		return fmt.Errorf("fabric: result is not a table list: %w", err)
	}
	if len(tables) == 0 {
		return errors.New("fabric: result holds no table")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Client is the HTTP side of Transport: a worker's connection to a
// remote coordinator (cmd/pramd or any server mounting
// Coordinator.Handler).
type Client struct {
	// BaseURL is the coordinator's root, e.g. "http://127.0.0.1:7077".
	BaseURL string
	// HTTP is the underlying client (nil = a 30s-timeout default).
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// Lease implements Transport.
func (c *Client) Lease(workerID string) (LeaseReply, error) {
	var reply LeaseReply
	err := c.post("/v1/fabric/lease", leaseRequest{Worker: workerID}, &reply)
	return reply, err
}

// Heartbeat implements Transport; 410 Gone maps back to
// ErrLeaseExpired.
func (c *Client) Heartbeat(leaseID string) error {
	return c.post("/v1/fabric/heartbeat", heartbeatRequest{LeaseID: leaseID}, nil)
}

// Complete implements Transport.
func (c *Client) Complete(leaseID, taskKey string, result json.RawMessage) error {
	return c.post("/v1/fabric/complete", completeRequest{LeaseID: leaseID, TaskKey: taskKey, Result: result}, nil)
}

// Fail implements Transport.
func (c *Client) Fail(leaseID, taskKey, cause string) error {
	return c.post("/v1/fabric/fail", failRequest{LeaseID: leaseID, TaskKey: taskKey, Cause: cause}, nil)
}

// Status fetches the coordinator's accounting snapshot.
func (c *Client) Status() (Stats, error) {
	var s Stats
	resp, err := c.httpClient().Get(strings.TrimRight(c.BaseURL, "/") + "/v1/fabric/status")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("fabric: status: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

func (c *Client) post(path string, req, out any) error {
	raw, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Post(strings.TrimRight(c.BaseURL, "/")+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusGone:
		return ErrLeaseExpired
	case resp.StatusCode >= 300:
		var msg struct {
			Error string `json:"error"`
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(body, &msg) == nil && msg.Error != "" {
			return fmt.Errorf("fabric: %s: %s", resp.Status, msg.Error)
		}
		return fmt.Errorf("fabric: %s %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	case out != nil:
		return json.NewDecoder(resp.Body).Decode(out)
	default:
		io.Copy(io.Discard, resp.Body)
		return nil
	}
}
