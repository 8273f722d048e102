package serve

import (
	"encoding/json"
	"math/rand"
	"time"

	"wmstream"
	"wmstream/internal/durable"
	"wmstream/internal/obs"
)

// Durability layer of the job tier.  When Config.JobDir is set, every
// job state transition is journaled through a durable.Store before it
// is acknowledged, and running jobs periodically spill
// checkpoint blobs, so a process death loses no acknowledged job: on
// the next boot, queued jobs re-enter their tenants' queues in the
// original submission order and running jobs resume from their latest
// valid checkpoint (falling back to the previous one, then to a clean
// restart, when a blob fails verification).  Transient failures —
// a corrupt checkpoint discovered mid-resume, a failed spill — retry
// with capped exponential backoff up to Config.JobRetries; journal
// write failures degrade the store to memory-only mode rather than
// failing the job tier (reported via /healthz and /metrics).

// RecoveryInfo reports what boot-time journal replay reconstructed.
type RecoveryInfo struct {
	// Requeued counts queued/running jobs re-admitted without a
	// checkpoint; Resumed counts those re-admitted with one.
	Requeued int `json:"requeued_jobs"`
	Resumed  int `json:"resumed_jobs"`
	// Restored counts terminal jobs whose results were brought back
	// (still pollable until their TTL); Expired counts terminal jobs
	// already past TTL at boot.
	Restored int `json:"restored_jobs"`
	Expired  int `json:"expired_jobs"`
	// Abandoned counts records too damaged to act on (undecodable
	// request payloads); their jobs are tombstoned.
	Abandoned int `json:"abandoned_jobs"`
	// TornTails and CorruptRecords surface the journal replay damage
	// counts.
	TornTails      int `json:"journal_torn_tails,omitempty"`
	CorruptRecords int `json:"journal_corrupt_records,omitempty"`
}

// openStore opens the journal under Config.JobDir and rebuilds the
// job table from it.  Failure to open is absorbed: the tier runs
// memory-only exactly as it does with no JobDir, and health reports
// why.  Called before start(), so recovered jobs are enqueued before
// any worker looks.
func (jm *jobManager) openStore() {
	fsync, err := durable.ParseFsyncPolicy(jm.cfg.JobFsync)
	if err != nil {
		jm.cfg.Logger.Warn("jobs: bad fsync policy; using batch", "err", err)
		fsync = durable.FsyncBatch
	}
	store, rec, err := durable.Open(durable.Options{
		Dir:    jm.cfg.JobDir,
		Fsync:  fsync,
		Faults: jm.cfg.JobFaults,
		Logger: jm.cfg.Logger,
	})
	if err != nil {
		jm.cfg.Logger.Warn("jobs: opening job dir failed; jobs are memory-only",
			"dir", jm.cfg.JobDir, "err", err)
		jm.storeErr = err.Error()
		return
	}
	jm.store = store
	jm.recover(rec)
}

// recover replays one boot's Recovery into the job table.  Runs
// before workers start; jm.mu is held for form.
func (jm *jobManager) recover(rec *durable.Recovery) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	now := time.Now()
	jm.seq = rec.MaxSeq
	jm.rec.TornTails = rec.Replay.TruncatedTails
	jm.rec.CorruptRecords = rec.Replay.CorruptRecords
	for _, r := range rec.Jobs {
		switch r.State {
		case "queued", "running":
			// Both re-enter the queue: a job that was mid-run when the
			// process died restarts (from its checkpoint when one
			// verifies) exactly as if it had never been dispatched.
			var req Request
			if err := json.Unmarshal(r.Request, &req); err != nil || req.Source == "" {
				jm.abandonLocked(r)
				continue
			}
			// Older binaries had a third engine, "fast", since retired.
			// It was bit-identical to the translated engine (the
			// differential tests gate both against the reference), so
			// its jobs run on, and resume into, the translated engine.
			if req.Machine != nil && req.Machine.Engine == "fast" {
				req.Machine.Engine = "translated"
			}
			j := &job{
				id:         r.ID,
				tenant:     r.Tenant,
				req:        &req,
				seq:        r.Seq,
				attempt:    r.Attempt,
				resume:     r.Checkpoint,
				resumePrev: r.PrevCheckpoint,
				state:      jobQueued,
				gen:        r.Gen + 1,
				changed:    make(chan struct{}),
			}
			// A journaled trace ID continues the job's end-to-end trace
			// across the restart: the resumed run records its spans under
			// the same ID the submitter was handed, marked resumed=true.
			if tid, err := obs.ParseTraceID(r.TraceID); err == nil {
				tr, root := jm.srv.traces.Start("job", tid, obs.SpanID{})
				root.SetAttr("job_id", j.id)
				root.SetAttr("resumed", "true")
				if j.tenant != "" {
					root.SetAttr("tenant", j.tenant)
				}
				j.trace, j.root = tr, root
				j.qspan = root.StartChild("queue.wait")
			}
			jm.byID[j.id] = j
			jm.enqueueLocked(j)
			if j.resume != nil {
				jm.rec.Resumed++
			} else {
				jm.rec.Requeued++
			}
		case "done", "failed", "canceled":
			if r.ExpiresUnixMs > 0 && now.After(time.UnixMilli(r.ExpiresUnixMs)) {
				jm.rec.Expired++
				jm.store.Put(durable.JobRecord{Seq: r.Seq, ID: r.ID, State: "deleted"})
				jm.removeRefs(r.Checkpoint, r.PrevCheckpoint)
				continue
			}
			j := &job{
				id:      r.ID,
				tenant:  r.Tenant,
				seq:     r.Seq,
				attempt: r.Attempt,
				gen:     r.Gen + 1,
				changed: make(chan struct{}),
				errMsg:  r.Error,
				expires: time.UnixMilli(r.ExpiresUnixMs),
			}
			switch r.State {
			case "done":
				j.state = jobDone
				var res RunResponse
				if err := json.Unmarshal(r.Result, &res); err != nil {
					jm.abandonLocked(r)
					continue
				}
				j.result = &res
			case "failed":
				j.state = jobFailed
				if len(r.Diags) > 0 {
					json.Unmarshal(r.Diags, &j.diags)
				}
			default:
				j.state = jobCanceled
			}
			jm.byID[j.id] = j
			jm.rec.Restored++
		default:
			jm.abandonLocked(r)
		}
	}
	counts := map[string]int{
		`outcome="requeued"`:  jm.rec.Requeued,
		`outcome="resumed"`:   jm.rec.Resumed,
		`outcome="restored"`:  jm.rec.Restored,
		`outcome="expired"`:   jm.rec.Expired,
		`outcome="abandoned"`: jm.rec.Abandoned,
	}
	for label, n := range counts {
		if n > 0 {
			jm.srv.metrics.recovered.add(label, int64(n))
		}
	}
}

// abandonLocked tombstones a record recovery cannot act on.
func (jm *jobManager) abandonLocked(r durable.JobRecord) {
	jm.rec.Abandoned++
	jm.cfg.Logger.Warn("jobs: abandoning undecodable journal record", "id", r.ID, "state", r.State)
	jm.store.Put(durable.JobRecord{Seq: r.Seq, ID: r.ID, State: "deleted"})
	jm.removeRefs(r.Checkpoint, r.PrevCheckpoint)
}

// enqueueLocked puts a queued job into its tenant FIFO and the
// round-robin ring.  Caller holds jm.mu.
func (jm *jobManager) enqueueLocked(j *job) {
	if len(jm.pending[j.tenant]) == 0 {
		jm.order = append(jm.order, j.tenant)
	}
	jm.pending[j.tenant] = append(jm.pending[j.tenant], j)
	jm.queued++
}

// put journals one record; a nil store journals nothing.  The only
// error that propagates is durable.ErrCrashed — fault injection has
// simulated a process death, and the caller must not acknowledge.
func (jm *jobManager) put(r durable.JobRecord) error {
	if jm.store == nil {
		return nil
	}
	return jm.store.Put(r)
}

// recordLocked renders the job's current state as a journal record.
// Caller holds j.mu.
func (jm *jobManager) recordLocked(j *job) durable.JobRecord {
	r := durable.JobRecord{
		Seq:            j.seq,
		ID:             j.id,
		State:          j.state.String(),
		Tenant:         j.tenant,
		Gen:            j.gen,
		Attempt:        j.attempt,
		Checkpoint:     j.resume,
		PrevCheckpoint: j.resumePrev,
	}
	if j.trace != nil {
		r.TraceID = j.trace.ID().String()
	}
	if !j.state.terminal() && j.req != nil {
		// Non-terminal records must be re-runnable: the journal is
		// last-wins, so each one carries the original request verbatim.
		r.Request, _ = json.Marshal(j.req)
	}
	if j.result != nil {
		r.Result, _ = json.Marshal(j.result)
	}
	r.Error = j.errMsg
	if len(j.diags) > 0 {
		r.Diags, _ = json.Marshal(j.diags)
	}
	if !j.expires.IsZero() {
		r.ExpiresUnixMs = j.expires.UnixMilli()
	}
	return r
}

// removeRefs deletes checkpoint blobs, deduplicating shared hashes.
func (jm *jobManager) removeRefs(refs ...*durable.CheckpointRef) {
	if jm.store == nil {
		return
	}
	seen := map[string]bool{}
	for _, ref := range refs {
		if ref == nil || seen[ref.Hash] {
			continue
		}
		seen[ref.Hash] = true
		jm.store.RemoveCheckpoint(*ref)
	}
}

// loadResume returns the job's best checkpoint blob, dropping (and
// counting) candidates that fail verification, or nil for a clean
// start.
func (jm *jobManager) loadResume(j *job) []byte {
	for {
		j.mu.Lock()
		ref := j.resume
		j.mu.Unlock()
		if ref == nil {
			return nil
		}
		blob, err := jm.store.LoadCheckpoint(*ref)
		if err == nil {
			return blob
		}
		jm.cfg.Logger.Warn("jobs: checkpoint failed verification; falling back",
			"job", j.id, "hash", ref.Hash[:12], "err", err)
		jm.srv.metrics.jobs.add(`event="checkpoint_corrupt"`, 1)
		jm.dropResume(j)
	}
}

// dropResume discards the job's newest checkpoint candidate,
// promoting the previous one.
func (jm *jobManager) dropResume(j *job) {
	j.mu.Lock()
	dropped := j.resume
	j.resume, j.resumePrev = j.resumePrev, nil
	keep := j.resume
	j.mu.Unlock()
	if dropped != nil && (keep == nil || keep.Hash != dropped.Hash) {
		if jm.store != nil {
			jm.store.RemoveCheckpoint(*dropped)
		}
	}
}

// spill persists one checkpoint blob and journals the job's new
// resume point.  Failures degrade — counted and logged, the run
// continues on its in-memory state — because a checkpoint is an
// optimization, never a correctness requirement.
func (jm *jobManager) spill(j *job, state []byte, p wmstream.RunProgress) {
	csp := j.root.StartChild("checkpoint.write")
	csp.SetAttrInt("bytes", int64(len(state)))
	csp.SetAttrInt("cycle", p.Cycles)
	ref, err := jm.store.SaveCheckpoint(state, p.Cycles)
	csp.EndErr(err)
	if err != nil {
		if err != durable.ErrCrashed {
			jm.cfg.Logger.Warn("jobs: checkpoint spill failed; run continues unprotected",
				"job", j.id, "err", err)
		}
		jm.srv.metrics.jobs.add(`event="spill_failed"`, 1)
		return
	}
	var rec durable.JobRecord
	var dropHash string
	j.mu.Lock()
	if j.resume == nil || j.resume.Hash != ref.Hash {
		if j.resumePrev != nil {
			dropHash = j.resumePrev.Hash
		}
		j.resumePrev = j.resume
		j.resume = &ref
		if dropHash != "" &&
			(dropHash == j.resume.Hash || (j.resumePrev != nil && dropHash == j.resumePrev.Hash)) {
			dropHash = "" // still referenced under content addressing
		}
	}
	rec = jm.recordLocked(j)
	j.mu.Unlock()
	jm.putTraced(j, rec, "running")
	if dropHash != "" {
		jm.store.RemoveCheckpoint(durable.CheckpointRef{Hash: dropHash})
	}
}

// retryWait decides whether a transiently failed attempt should run
// again, sleeping the backoff if so.  Capped exponential with jitter:
// base<<attempt up to 64x, half of it jittered.
func (jm *jobManager) retryWait(j *job) bool {
	j.mu.Lock()
	attempt := j.attempt
	canceled := j.cancelRequested
	j.mu.Unlock()
	if canceled || jm.srv.base.Err() != nil || attempt > jm.cfg.JobRetries {
		return false
	}
	jm.srv.metrics.jobs.add(`event="retried"`, 1)
	d := retryBackoff(jm.cfg.JobRetryBase, attempt)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-jm.srv.base.Done():
		return false
	case <-jm.done:
		return false
	}
}

// retryBackoff computes the nth (1-based) retry delay.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 6 {
		shift = 6 // cap at 64x base
	}
	d := base << shift
	// Full jitter on the upper half, so synchronized retries spread.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// crash simulates an abrupt process death for the crash-restart
// harness: workers are told to stop and waited for — their in-flight
// simulations abort via the already-canceled base context — but no
// graceful-shutdown state transitions are journaled (the harness has
// wedged the store with fault injection, so any attempted write fails
// with ErrCrashed).  The journal file handles are released so a new
// Server can recover from the same directory in-process.
func (jm *jobManager) crash() {
	jm.mu.Lock()
	if !jm.closed {
		jm.closed = true
		close(jm.done)
	}
	jm.pending = make(map[string][]*job)
	jm.order = nil
	jm.queued = 0
	jm.mu.Unlock()
	jm.wg.Wait()
	if jm.store != nil {
		jm.store.Close()
	}
}
