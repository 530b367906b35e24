package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	sigsub "repro"
	"repro/internal/service"
	"repro/internal/snapshot"
)

const (
	scatterShards = 2   // one vCPU per shard on a 2-vCPU host
	scatterOps    = 200 // straddling batches a traced serve run scatters
	scatterVerify = 16  // of them checked against a solo library scan
)

// straddleBatches generates the scatter layer's batches: MSS + top-10 +
// threshold (limit 500) on a window that straddles the segment cut, so both
// shards work and the merge folds two partials of every query. Window
// lengths cycle through serveWindows; positions come from rng.
func straddleBatches(rng *rand.Rand, corpus string, cut, count int) []service.BatchRequest {
	out := make([]service.BatchRequest, count)
	for i := range out {
		w := serveWindows[i%len(serveWindows)]
		lo := cut - 1 - rng.Intn(w-1)
		rq := func(kind string) service.Query { return service.Query{Kind: kind, Lo: lo, Hi: lo + w} }
		th := rq("threshold")
		th.Alpha, th.Limit = thresholdAlpha(w), 500
		top := rq("topt")
		top.T = 10
		out[i] = service.BatchRequest{Corpus: corpus, Queries: []service.Query{rq("mss"), top, th}}
	}
	return out
}

// cutAndDeploy is the offline half of a scatter set-up: mss cuts the corpus
// into suffix-segment snapshots, and each lands in its shard's data dir
// under the parent corpus's store name, sidecar alongside. It returns the
// shard data dirs and segment snapshot paths.
func (r *run) cutAndDeploy(textPath, dir, corpus string) (dirs, segs []string, err error) {
	snap := filepath.Join(dir, corpus+".snap")
	cmd := exec.Command(filepath.Join(r.bin, "mss"), "-file", textPath, "-mode", "none",
		"-snapshot-out", snap, "-segments", fmt.Sprint(scatterShards))
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("mss -segments: %v: %s", err, stderr.String())
	}
	store := base64.RawURLEncoding.EncodeToString([]byte(corpus)) + ".snap"
	for i := range scatterShards {
		seg := filepath.Join(dir, fmt.Sprintf("%s.seg%d-of%d.snap", corpus, i, scatterShards))
		shardDir := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return nil, nil, err
		}
		for src, dst := range map[string]string{
			seg:                              filepath.Join(shardDir, store),
			snapshot.SegmentSidecarPath(seg): snapshot.SegmentSidecarPath(filepath.Join(shardDir, store)),
		} {
			if err := os.Link(src, dst); err != nil {
				return nil, nil, err
			}
		}
		dirs = append(dirs, shardDir)
		segs = append(segs, seg)
	}
	return dirs, segs, nil
}

// scatterReplay is the in-process coordinator the scatter layer is measured
// through: service.Scatter against real shard daemons, plus the opened
// segment snapshots the library's side of the scatter runs on.
type scatterReplay struct {
	sc     *service.Scatter
	opened []*sigsub.Snapshot
	n      int
	starts []int

	shardMax, skew samples // slowest shard (ms) and slowest ÷ mean, per scatter
}

// measureScatter measures the scatter layer in a traced serve run. It runs
// after the timed window, with the serve daemon stopped, so nothing else
// competes for the CPUs: mss cuts the corpus into two suffix segments, an
// mssd -shard-of daemon serves each, and an in-process service.Scatter over
// them executes scatterOps straddling batches, each followed by the
// library's plan, per-shard execution and merge of the same queries. A
// seeded sample of the merged answers must equal solo's, the library scan
// of the whole corpus.
func (r *run) measureScatter(text []byte, corpus string, solo *sigsub.Scanner) error {
	textPath := filepath.Join(r.dir, "scatter.txt")
	if err := os.WriteFile(textPath, text, 0o644); err != nil {
		return err
	}
	dir := filepath.Join(r.dir, "cut")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dirs, segs, err := r.cutAndDeploy(textPath, dir, corpus)
	if err != nil {
		return err
	}
	var peers []string
	for i, sd := range dirs {
		// One vCPU per shard: each shard's scan is single-threaded, and a
		// second P would only let its GC compete with the other shard.
		d, err := r.startDaemonEnv(fmt.Sprintf("shard%d", i), []string{"GOMAXPROCS=1"}, "-data-dir", sd,
			"-shard-of", fmt.Sprintf("%d/%d", i, scatterShards))
		if err != nil {
			return err
		}
		peers = append(peers, d.base)
	}
	opened, err := r.openSegments(segs)
	if err != nil {
		return err
	}
	defer func() {
		for _, sn := range opened {
			sn.Close()
		}
	}()
	x := &scatterReplay{sc: &service.Scatter{Peers: peers, Client: newClient(scatterShards)},
		opened: opened, n: len(text), starts: sigsub.SegmentStarts(len(text), scatterShards)}

	rng := rand.New(rand.NewSource(r.seed ^ 0x5ca7))
	batches := straddleBatches(rng, corpus, x.starts[1], scatterOps)
	answers := make([]service.BatchResponse, len(batches))
	answered := make([]bool, len(batches))
	for i, req := range batches {
		id := r.tr.op()
		answers[i], answered[i] = r.scatterCall(x, id, req)
		r.scatterLibrary(x, id, req)
	}
	r.attempted += int64(len(batches))
	for _, i := range rng.Perm(len(batches))[:scatterVerify] {
		if !answered[i] {
			continue // already counted as failed
		}
		r.verified()
		ps, err := plans(batches[i])
		if err != nil {
			r.mismatch("scatter batch %d: %v", i, err)
			continue
		}
		want, err := solo.RunBatch(ps, sigsub.WithWorkers(1))
		if err != nil {
			r.mismatch("scatter batch %d: library: %v", i, err)
			continue
		}
		// Top-t ties at the t-th value may break differently; work counters
		// split across shards.
		if msg := compareAnswers(batches[i], answers[i], want, compareMode{topX2Only: true, noStats: true}); msg != "" {
			r.mismatch("scatter batch %d: %s", i, msg)
		}
	}

	if x.shardMax.n() > 0 {
		r.setLayer("service.shard_max_ms", x.shardMax.q(0.5))
		r.setLayer("service.shard_skew", x.skew.q(0.5))
	}
	if st := x.sc.Stats(); st.ShardCalls > 0 {
		r.setLayer("service.scatter_retries", float64(st.Retries)/float64(st.ShardCalls))
	}
	r.note("scatter_counters", map[string]any{"batches": len(batches), "stats": x.sc.Stats(),
		"shard_max_ms": x.shardMax.summary(), "shard_skew": x.skew.summary()})
	return nil
}

// shardSpread returns the slowest shard's elapsed time (ms) and the mean
// over the shards a request reached.
func shardSpread(info *service.ScatterInfo) (mx, mean float64) {
	for _, s := range info.PerShard {
		ms := float64(s.ElapsedNS) / 1e6
		mx = math.Max(mx, ms)
		mean += ms
	}
	if len(info.PerShard) > 0 {
		mean /= float64(len(info.PerShard))
	}
	return mx, mean
}

// scatterCall runs req through the coordinator as a span, with the slowest
// shard's reported time as the span's child; it reports whether the
// coordinator answered.
func (r *run) scatterCall(x *scatterReplay, id int64, req service.BatchRequest) (service.BatchResponse, bool) {
	start := time.Now()
	resp, err := x.sc.Execute(context.Background(), req)
	end := time.Now()
	if err != nil {
		r.mismatch("scatter: %v", err)
		return resp, false
	}
	sct := r.tr.add(id, 0, "service.scatter", start, end)
	if resp.Scatter != nil {
		mx, mean := shardSpread(resp.Scatter)
		r.tr.add(id, sct, "service.shard_max", start, start.Add(time.Duration(mx*1e6)))
		x.shardMax.addMS(mx)
		if mean > 0 {
			x.skew.addMS(mx / mean)
		}
	}
	return resp, true
}

// scatterLibrary repeats the library's side of a scatter with the same
// queries: the plan, each shard's execution on its opened segment, and the
// merge.
func (r *run) scatterLibrary(x *scatterReplay, id int64, req service.BatchRequest) {
	tr := r.tr
	ps, err := plans(req)
	if err != nil {
		return
	}
	var plan *sigsub.ShardPlan
	tr.timed(id, 0, "sigsub.plan", func() { plan, err = sigsub.PlanShardBatch(x.n, x.starts, ps) })
	if err != nil {
		return
	}
	partials := make([][]sigsub.ShardPartial, plan.Shards())
	for s := range plan.Shards() {
		if sub := plan.Subplan(s); len(sub) > 0 {
			tr.timed(id, 0, "sigsub.shard_exec", func() {
				partials[s], _ = x.opened[s].Scanner().ExecShard(context.Background(), s, x.starts[s], sub)
			})
		}
	}
	tr.timed(id, 0, "sigsub.merge", func() { plan.Merge(partials, len(serveAlphabet)) })
}

// openSegments opens the segment snapshots, timing each open.
func (r *run) openSegments(segs []string) ([]*sigsub.Snapshot, error) {
	var opened []*sigsub.Snapshot
	for _, seg := range segs {
		start := time.Now()
		sn, err := sigsub.OpenSnapshot(seg)
		if err != nil {
			for _, o := range opened {
				o.Close()
			}
			return nil, err
		}
		r.tr.add(r.tr.op(), 0, "sigsub.snapshot_open", start, time.Now())
		opened = append(opened, sn)
	}
	return opened, nil
}
