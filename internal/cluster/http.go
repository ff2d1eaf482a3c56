package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/journal"
)

// Wire types of the coordinator/worker protocol. Figures travel as the
// exact bytes core.Figure.WriteJSON produces: Go's float64 JSON
// encoding round-trips bit-exactly, so transport cannot perturb the
// merged surface.

type registerRequest struct {
	WorkerID string `json:"worker_id,omitempty"`
	Addr     string `json:"addr,omitempty"`
}

type registerResponse struct {
	WorkerID     string `json:"worker_id"`
	LeaseTTLNano int64  `json:"lease_ttl_ns"`
	// Epoch is the coordinator generation the worker must echo on every
	// subsequent call; a restarted coordinator answers later traffic
	// with epoch_mismatch until the worker re-registers.
	Epoch uint64 `json:"epoch,omitempty"`
}

type leaseRequest struct {
	WorkerID string `json:"worker_id"`
	Epoch    uint64 `json:"epoch,omitempty"`
}

// leaseResponse carries the grant, or None when the worker should poll
// again.
type leaseResponse struct {
	None  bool   `json:"none,omitempty"`
	Grant *Grant `json:"grant,omitempty"`
}

type heartbeatRequest struct {
	WorkerID string     `json:"worker_id"`
	Epoch    uint64     `json:"epoch,omitempty"`
	Held     []ShardRef `json:"held,omitempty"`
}

type heartbeatResponse struct {
	Drop []ShardRef `json:"drop,omitempty"`
}

type reportRequest struct {
	WorkerID string `json:"worker_id"`
	Epoch    uint64 `json:"epoch,omitempty"`
	SweepID  string `json:"sweep_id"`
	Key      string `json:"key"`
	// Figure holds the WriteJSON bytes of the cell fragment on success.
	Figure json.RawMessage `json:"figure,omitempty"`
	// Error is the failure message; empty means success.
	Error string `json:"error,omitempty"`
}

type sweepCreated struct {
	ID     string `json:"id"`
	Shards int    `json:"shards"`
}

// sweepView is the polled sweep state; Figures appears once done.
type sweepView struct {
	ID      string                     `json:"id"`
	State   string                     `json:"state"`
	Done    int                        `json:"done"`
	Total   int                        `json:"total"`
	Error   string                     `json:"error,omitempty"`
	Figures map[string]json.RawMessage `json:"figures,omitempty"`
}

// protocolErrors gives each protocol sentinel its wire code and HTTP
// status. The code travels in the error body so the client side can
// reconstruct errors.Is-able errors without matching message text.
var protocolErrors = []struct {
	err    error
	code   string
	status int
}{
	{ErrUnknownWorker, "unknown_worker", http.StatusNotFound},
	{ErrUnknownSweep, "unknown_sweep", http.StatusNotFound},
	{ErrUnknownShard, "unknown_shard", http.StatusNotFound},
	{ErrEpochMismatch, "epoch_mismatch", http.StatusConflict},
}

// fail answers err: a protocol sentinel with its code and status, any
// other error uncoded with status.
func fail(w http.ResponseWriter, status int, err error) {
	code := ""
	for _, p := range protocolErrors {
		if errors.Is(err, p.err) {
			code, status = p.code, p.status
			break
		}
	}
	envelope.Error(w, status, code, err)
}

// maxBodyBytes bounds a protocol request body. The largest legitimate
// one is a report carrying a cell fragment, and the coordinator journals
// that fragment as one WAL record: a report too large for a record is
// already undurable, so it is refused at the door.
const maxBodyBytes = journal.MaxRecordBytes

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		fail(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// Routes exposes the coordinator API as handlers keyed by Go 1.22
// ServeMux patterns, ready for server.Config.Routes — so cluster
// traffic flows through the same middleware (metrics accounting, panic
// recovery, request-id stamping, handler fault site) as the simulate
// and sweep endpoints.
func (c *Coordinator) Routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /cluster/register":  c.handleRegister,
		"POST /cluster/lease":     c.handleLease,
		"POST /cluster/heartbeat": c.handleHeartbeat,
		"POST /cluster/report":    c.handleReport,
		"POST /cluster/sweep":     c.handleCreateSweep,
		"GET /cluster/sweep/{id}": c.handleGetSweep,
		"GET /cluster/status":     c.handleStatus,
	}
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decode(w, r, &req) {
		return
	}
	id, ttl := c.Register(req.WorkerID, req.Addr)
	envelope.Write(w, http.StatusOK, registerResponse{WorkerID: id, LeaseTTLNano: int64(ttl), Epoch: c.Epoch()})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.checkEpoch(req.Epoch); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	g, err := c.Lease(req.WorkerID)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if g == nil {
		envelope.Write(w, http.StatusOK, leaseResponse{None: true})
		return
	}
	envelope.Write(w, http.StatusOK, leaseResponse{Grant: g})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.checkEpoch(req.Epoch); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	drop, err := c.Heartbeat(req.WorkerID, req.Held)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	envelope.Write(w, http.StatusOK, heartbeatResponse{Drop: drop})
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req reportRequest
	if !decode(w, r, &req) {
		return
	}
	if err := c.checkEpoch(req.Epoch); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	var frag *core.Figure
	if req.Error == "" {
		f, err := core.ReadFigureJSON(bytes.NewReader(req.Figure))
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		frag = f
	}
	if err := c.Report(req.WorkerID, req.SweepID, req.Key, frag, req.Error); err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	envelope.Write(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleCreateSweep(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decode(w, r, &spec) {
		return
	}
	id, shards, err := c.CreateSweep(spec)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	envelope.Write(w, http.StatusAccepted, sweepCreated{ID: id, Shards: shards})
}

func (c *Coordinator) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	res, err := c.Sweep(r.PathValue("id"))
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	view := sweepView{ID: res.ID, State: res.State, Done: res.Done, Total: res.Total, Error: res.Error}
	if res.Figures != nil {
		view.Figures = make(map[string]json.RawMessage, len(res.Figures))
		for id, f := range res.Figures {
			var buf bytes.Buffer
			if err := f.WriteJSON(&buf); err != nil {
				fail(w, http.StatusInternalServerError, err)
				return
			}
			view.Figures[id] = json.RawMessage(buf.Bytes())
		}
	}
	envelope.Write(w, http.StatusOK, view)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	envelope.Write(w, http.StatusOK, c.StatusSnapshot())
}

// leaseTTL is shared by worker heartbeat pacing; kept here so both
// sides agree on the wire unit (nanoseconds).
func leaseTTLFrom(resp registerResponse) time.Duration {
	return time.Duration(resp.LeaseTTLNano)
}
