package server

import (
	"context"
	"fmt"

	"nanobench"
)

// This file is the shared evaluation core behind the synchronous
// endpoints (/v1/run, /v1/runbatch, /v1/sweep) and the asynchronous job
// kinds layered on them: request validation and session grouping
// (prepareRun/prepareBatch/prepareSweep), and the ordered multi-session
// merge (mergeGroups). Keeping one code path means a job's rendered
// result is byte-identical to the synchronous response by construction.

// evalGroup is one session's share of a heterogeneous request: the
// configs routed to that session plus their global response indices, in
// first-appearance order.
type evalGroup struct {
	sess    *nanobench.Session
	indices []int
	cfgs    []nanobench.Config
}

// prepareRun validates a single-evaluation request and resolves its
// session.
func (s *Server) prepareRun(req runRequest) (*nanobench.Session, *apiError) {
	if len(req.Config.Code) == 0 && len(req.Config.CodeInit) == 0 {
		return nil, errInvalid("config: no benchmark code (give code/asm or code_init/asm_init)")
	}
	if e := validateCost(req.Config); e != nil {
		return nil, e
	}
	return s.session(req.CPU, req.Mode)
}

// prepareBatch validates a batch request and groups its jobs by
// session. Returns the groups and the total job count.
func (s *Server) prepareBatch(req batchRequest) ([]*evalGroup, int, *apiError) {
	if len(req.Jobs) == 0 {
		return nil, 0, errInvalid("empty batch: no jobs")
	}
	if len(req.Jobs) > s.opts.MaxBatch {
		return nil, 0, errInvalid(fmt.Sprintf("batch of %d jobs exceeds the limit of %d", len(req.Jobs), s.opts.MaxBatch))
	}
	groups, e := s.groupJobs(len(req.Jobs), "job", func(i int) (string, string, nanobench.Config) {
		return req.Jobs[i].CPU, req.Jobs[i].Mode, req.Jobs[i].Config
	})
	return groups, len(req.Jobs), e
}

// prepareSweep validates a sweep request, expands it into (CPU, mode,
// config) jobs — heterogeneous sweeps fan out across sessions, plain
// ones collapse to the default session — and groups them. Returns the
// groups and the expansion size.
func (s *Server) prepareSweep(req sweepRequest) ([]*evalGroup, int, *apiError) {
	// Resolve the request-level defaults first: a bad cpu/mode name fails
	// here whether or not the sweep overrides those dimensions.
	sess, e := s.session(req.CPU, req.Mode)
	if e != nil {
		return nil, 0, e
	}
	if err := req.Sweep.Err(); err != nil {
		return nil, 0, errInvalid(err.Error())
	}
	n := req.Sweep.Len()
	if n == 0 {
		return nil, 0, errInvalid("sweep expands to no configs (no benchmark code)")
	}
	if n > s.opts.MaxBatch {
		return nil, 0, errInvalid(fmt.Sprintf("sweep of %d configs exceeds the limit of %d", n, s.opts.MaxBatch))
	}
	// Expand here (exactly what StreamSweep would do) so every generated
	// config passes the cost gate before any simulation starts. The
	// request's own cpu/mode fields are the defaults for dimensions the
	// sweep leaves unset; an empty CPU stays empty for the session
	// registry to resolve.
	jobs, err := req.Sweep.Jobs(req.CPU, sess.Mode())
	if err != nil {
		return nil, 0, errInvalid(err.Error())
	}
	groups, e := s.groupJobs(len(jobs), "config", func(i int) (string, string, nanobench.Config) {
		return jobs[i].CPU, jobs[i].Mode.String(), jobs[i].Cfg
	})
	return groups, len(jobs), e
}

// groupJobs validates (cpu, mode, config) entries and groups them by
// session, preserving first-appearance order so the per-session
// sub-batches (and therefore the index-derived machine seeds) are
// deterministic. A bad entry fails the whole request up front — a typo
// in entry 7's CPU name is caught before any simulation starts — with
// the entry's position prefixed onto the message ("job 7: ...").
func (s *Server) groupJobs(n int, label string, entry func(i int) (cpu, mode string, cfg nanobench.Config)) ([]*evalGroup, *apiError) {
	bySession := make(map[*nanobench.Session]*evalGroup)
	var groups []*evalGroup
	for i := 0; i < n; i++ {
		cpu, mode, cfg := entry(i)
		e := validateCost(cfg)
		if e == nil {
			var sess *nanobench.Session
			if sess, e = s.session(cpu, mode); e == nil {
				g := bySession[sess]
				if g == nil {
					g = &evalGroup{sess: sess}
					bySession[sess] = g
					groups = append(groups, g)
				}
				g.indices = append(g.indices, i)
				g.cfgs = append(g.cfgs, cfg)
				continue
			}
		}
		e.body.Message = fmt.Sprintf("%s %d: %s", label, i, e.body.Message)
		return nil, e
	}
	return groups, nil
}

// mergeGroups delivers every group's items over one channel in global
// index order, each as soon as it and all its predecessors are ready: a
// session stream arrives in order and a group's indices ascend, so index
// i is the next item of its group's stream. The synchronous endpoints
// and the job kinds share it, so a job's bytes equal the synchronous
// response's.
//
// On cancellation the sessions deliver the remaining items carrying the
// context error, so the merge always retires and the channel closes.
// Every stream is buffered to its item count, so none waits on another
// and draining never blocks.
func mergeGroups(ctx context.Context, groups []*evalGroup, n int) <-chan nanobench.BatchItem {
	owner := make([]<-chan nanobench.BatchItem, n)
	for _, g := range groups {
		ch := g.sess.Stream(ctx, g.cfgs)
		for _, idx := range g.indices {
			owner[idx] = ch
		}
	}
	out := make(chan nanobench.BatchItem, n)
	go func() {
		defer close(out)
		for i, ch := range owner {
			it := <-ch
			it.Index = i
			out <- it
		}
	}()
	return out
}
