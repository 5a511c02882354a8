package server

import (
	"net/http"
	"sync"
	"time"

	"gskew/internal/api"
	"gskew/internal/kernel"
	"gskew/internal/predictor"
)

// The wire shapes of /v1/predict (api.PredictRequest, api.Branch,
// api.PredictResponse) live in internal/api with the rest of the
// contract; this file is their serving side.

// session is one pinned predictor instance: the tenant-isolated state
// of a /v1/predict stream. Each session owns its predictor, its
// compiled kernel and its global-history register; nothing is shared
// between sessions, so one client's stream can never train another's
// predictor (the isolation property motivating per-tenant predictor
// state).
type session struct {
	mu       sync.Mutex
	spec     string
	p        predictor.Predictor
	kern     kernel.Kernel     // non-nil when the organisation compiles
	stepper  predictor.Stepper // non-nil fused fast path
	mask     uint64
	ghr      uint64
	steps    []kernel.Step // reused staging buffer for the kernel path
	conds    int
	mispred  int
	lastUsed time.Time
}

// sessionTable is the bounded session registry. Inserting beyond
// capacity evicts the least recently used session (its predictor state
// is gone; a client returning to an evicted id transparently starts a
// fresh session by re-sending the spec).
type sessionTable struct {
	mu  sync.Mutex
	max int
	m   map[string]*session
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{max: max, m: make(map[string]*session)}
}

func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// acquire returns the named session, creating it (with spec) when
// absent. The returned session is NOT locked; callers lock it for the
// duration of their batch.
func (t *sessionTable) acquire(id, spec string) (*session, error) {
	if id == "" {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadRequest, "no session id")
	}
	// Canonicalise before any comparison so re-sending the session's
	// spec in a different spelling stays idempotent.
	var (
		sp    predictor.Spec
		canon string
	)
	if spec != "" {
		var err error
		sp, err = predictor.ParseSpec(spec)
		if err != nil {
			return nil, apiErrorf(http.StatusBadRequest, api.CodeBadSpec, "spec: %v", err)
		}
		canon = sp.String()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[id]; ok {
		s.mu.Lock()
		s.lastUsed = time.Now()
		if canon != "" && canon != s.spec {
			cur := s.spec
			s.mu.Unlock()
			return nil, apiErrorf(http.StatusConflict, api.CodeSessionConflict,
				"session %q is pinned to %s (got %s); use a new session id", id, cur, canon)
		}
		s.mu.Unlock()
		return s, nil
	}
	if spec == "" {
		return nil, apiErrorf(http.StatusNotFound, api.CodeNoSuchSession,
			"session %q does not exist; create it by sending a spec", id)
	}
	p, err := sp.New()
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, api.CodeBadSpec, "spec: %v", err)
	}
	if len(t.m) >= t.max {
		t.evictLRU()
	}
	k := p.HistoryBits()
	s := &session{
		spec:     canon,
		p:        p,
		mask:     uint64(1)<<k - 1,
		lastUsed: time.Now(),
	}
	s.kern, _ = kernel.Compile(p, k)
	s.stepper, _ = p.(predictor.Stepper)
	t.m[id] = s
	mSessions.Set(int64(len(t.m)))
	return s, nil
}

// evictLRU drops the least recently used session. Caller holds t.mu.
func (t *sessionTable) evictLRU() {
	var oldestID string
	var oldest time.Time
	for id, s := range t.m {
		s.mu.Lock()
		when := s.lastUsed
		s.mu.Unlock()
		if oldestID == "" || when.Before(oldest) {
			oldestID, oldest = id, when
		}
	}
	delete(t.m, oldestID)
}

// remove deletes a session, reporting whether it existed.
func (t *sessionTable) remove(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.m[id]
	delete(t.m, id)
	mSessions.Set(int64(len(t.m)))
	return ok
}

// handlePredict appends one batch of branches to a session. The
// default path stages conditionals and drives the compiled kernel one
// StepBatch call per batch; when the client wants
// per-branch predictions (or the organisation has no kernel) the
// batch runs through the generic fused-step path instead. All paths
// are bit-identical, mirroring the sim runner's contract.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) error {
	mPredReqs.Inc()
	var req api.PredictRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	sess, err := s.sessions.acquire(req.Session, req.Spec)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	mPredSteps.Add(int64(len(req.Branches)))

	resp := api.PredictResponse{Session: req.Session, Spec: sess.spec}
	if req.ReturnPredictions {
		resp.Predictions = make([]bool, 0, len(req.Branches))
	}

	useKernel := sess.kern != nil && !req.ReturnPredictions
	if useKernel {
		sess.steps = sess.steps[:0]
		for i := range req.Branches {
			b := &req.Branches[i]
			if b.Uncond {
				sess.ghr = sess.ghr<<1 | 1
				continue
			}
			sess.steps = append(sess.steps, kernel.Step{PC: b.PC, Hist: sess.ghr, Taken: b.Taken})
			resp.Conditionals++
			if b.Taken {
				sess.ghr = sess.ghr<<1 | 1
			} else {
				sess.ghr = sess.ghr << 1
			}
		}
		resp.Mispredicts = sess.kern.StepBatch(sess.steps)
		// The kernel trains the predictor's tables directly; invalidate
		// any memoised read state so a later generic batch (or a spec
		// inspection) observes the trained tables.
		kernel.Invalidate(sess.p)
	} else {
		for i := range req.Branches {
			b := &req.Branches[i]
			if b.Uncond {
				sess.ghr = sess.ghr<<1 | 1
				continue
			}
			h := sess.ghr & sess.mask
			var pred bool
			if sess.stepper != nil {
				pred = sess.stepper.Step(b.PC, h, b.Taken)
			} else {
				pred = sess.p.Predict(b.PC, h)
				sess.p.Update(b.PC, h, b.Taken)
			}
			resp.Conditionals++
			if pred != b.Taken {
				resp.Mispredicts++
			}
			if resp.Predictions != nil {
				resp.Predictions = append(resp.Predictions, pred)
			}
			if b.Taken {
				sess.ghr = sess.ghr<<1 | 1
			} else {
				sess.ghr = sess.ghr << 1
			}
		}
	}
	sess.conds += resp.Conditionals
	sess.mispred += resp.Mispredicts
	resp.TotalConditionals = sess.conds
	resp.TotalMispredicts = sess.mispred
	return writeJSON(w, resp)
}

// handleEndSession releases a session's predictor state.
func (s *Server) handleEndSession(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("session")
	if !s.sessions.remove(id) {
		return apiErrorf(http.StatusNotFound, api.CodeNoSuchSession, "session %q does not exist", id)
	}
	return writeJSON(w, api.SessionEndResponse{Session: id, Status: "ended"})
}
