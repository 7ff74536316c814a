package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/data"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/quality"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/transport"
)

const (
	ioTimeout = 60 * time.Second
	// roundReads is how many classify requests of roundReadBatch objects
	// read each round's freshly published model, one after another on one
	// connection. Batches this large keep the latency dominated by
	// classification rather than by wake-ups, which on a shared host swung
	// the tail of 32-point requests by 40% between runs.
	roundReads     = 16
	roundReadBatch = 256
)

// roundsWorkload runs networked DBDC rounds: one transport.Server reused
// across rounds, numSites sites each running the RunSiteClient pipeline,
// every round on freshly drawn data. The server publishes each global model
// into a serve.Registry, and after each round a classify client reads it.
type roundsWorkload struct {
	n       int
	spatial bool
	// checked is how many leading rounds of a pass are checked against
	// dbdc.Run and scored against central DBSCAN (0 = every round). Both
	// references cost as much as a round; at 100k points checking every
	// round would leave too few rounds for a tail.
	checked int
}

// roundEnv is the server side of the round workloads.
type roundEnv struct {
	srv     *transport.Server
	reg     *serve.Registry
	cls     *serve.Server
	clsDone chan error

	mu          sync.Mutex
	publishedAt time.Time
	publishDur  time.Duration
	publishErr  error
}

func startRoundEnv() (*roundEnv, error) {
	srv, err := transport.NewServer("127.0.0.1:0", numSites, benchConfig, ioTimeout)
	if err != nil {
		return nil, err
	}
	e := &roundEnv{srv: srv, reg: serve.NewRegistry(index.KindKDTree), clsDone: make(chan error, 1)}
	srv.SetOnGlobal(func(g *model.GlobalModel) {
		t0 := time.Now()
		_, err := e.reg.Publish(g)
		e.mu.Lock()
		e.publishedAt, e.publishDur, e.publishErr = time.Now(), time.Since(t0), err
		e.mu.Unlock()
	})
	e.cls, err = serve.NewServer("127.0.0.1:0", serve.ServerConfig{Registry: e.reg, Timeout: ioTimeout})
	if err != nil {
		srv.Close()
		return nil, err
	}
	go func() { e.clsDone <- e.cls.Serve() }()
	return e, nil
}

func (e *roundEnv) close() {
	e.srv.Close()
	e.cls.Close()
	<-e.clsDone
}

func (e *roundEnv) lastPublish() (time.Time, time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.publishedAt, e.publishDur, e.publishErr
}

// siteRun is one site's share of a round.
type siteRun struct {
	labels  cluster.Labeling
	err     error
	outcome *dbdc.LocalOutcome // traced pass only
	global  *model.GlobalModel // traced pass only
	local   time.Duration      // traced: LocalStep
	exch    time.Duration      // traced: SendModelTimed
	relabel time.Duration      // traced: RelabelSite
}

// runSite runs one site's pipeline. Untraced it is transport.RunSiteClient
// itself; traced it makes RunSiteClient's three calls one by one, each
// inside a span.
func runSite(addr string, site dbdc.Site, tr *tracer, trace string, parent int) siteRun {
	c := &transport.Client{Addr: addr, Timeout: ioTimeout}
	if tr == nil {
		rep, err := transport.RunSiteClient(c, site.ID, site.Points, benchConfig)
		if err != nil {
			return siteRun{err: err}
		}
		return siteRun{labels: rep.Labels}
	}
	sp := tr.begin("site", trace, parent)
	defer tr.end(sp)
	var r siteRun
	s := tr.begin("dbdc.LocalStep", trace, sp)
	r.outcome, r.err = dbdc.LocalStep(site.ID, site.Points, benchConfig)
	r.local = tr.end(s)
	if r.err != nil {
		return r
	}
	phases := transport.SitePhases{
		Workers:  r.outcome.Timings.Workers,
		Cluster:  r.outcome.Timings.Cluster,
		Condense: r.outcome.Timings.Condense,
	}
	s = tr.begin("transport.SendModelTimed", trace, sp)
	r.global, _, r.err = c.SendModelTimed(r.outcome.Model, &phases)
	r.exch = tr.end(s)
	if r.err != nil {
		return r
	}
	s = tr.begin("dbdc.RelabelSite", trace, sp)
	r.labels, _, r.err = dbdc.RelabelSite(r.outcome, r.global)
	r.relabel = tr.end(s)
	return r
}

// centralLabels is the reference clustering of a whole round's data set. It
// uses the kd-tree, which gives the same clustering as the R*-tree in a
// third less time.
func centralLabels(ds data.Dataset) (cluster.Labeling, error) {
	idx, err := index.BuildStore(index.KindKDTree, ds.Store, geom.Euclidean{}, ds.Params.Eps)
	if err != nil {
		return nil, err
	}
	res, err := dbscan.Run(idx, ds.Params, dbscan.Options{})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// layerSamples collects per-round per-layer values; each reports its
// median over the rounds.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerSamples) medians() map[string]float64 {
	out := make(map[string]float64, len(l))
	for k, v := range l {
		out[k] = median(v)
	}
	return out
}

func (w roundsWorkload) run(p pass) (*passResult, error) {
	res := &passResult{e2e: map[string]float64{}}
	setupStart := time.Now()
	env, err := startRoundEnv()
	if err != nil {
		return nil, err
	}
	defer env.close()
	startup := time.Since(setupStart)
	heap := startHeapSampler()

	var (
		gens, refs, centrals      []float64
		rounds, fresh, reads, pii []float64
		uplink, downlink          []float64
		points                    int
		roundTime                 time.Duration
		layers                    = layerSamples{}
		ids                       []string
	)
	for i := 0; i < numSites; i++ {
		ids = append(ids, siteID(i))
	}
	deadline := time.Now().Add(p.dur)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		trace := fmt.Sprintf("round-%d", r)
		// Set-up of this round, outside its timer: inputs, and on checked
		// rounds the in-process reference run and the central reference
		// clustering.
		t0 := time.Now()
		in, err := genRound(w.n, w.spatial, p.seed+int64(r))
		if err != nil {
			return nil, err
		}
		gens = append(gens, time.Since(t0).Seconds())
		var ref *dbdc.Result
		var central cluster.Labeling
		if w.checked == 0 || r < w.checked {
			t0 = time.Now()
			if ref, err = dbdc.Run(in.sites, benchConfig); err != nil {
				return nil, err
			}
			refs = append(refs, time.Since(t0).Seconds())
			t0 = time.Now()
			if central, err = centralLabels(in.ds); err != nil {
				return nil, err
			}
			centrals = append(centrals, time.Since(t0).Seconds())
		}
		runtime.GC() // start every round from the same heap state

		in0, out0 := env.srv.BytesIn(), env.srv.BytesOut()
		type serverRound struct {
			global *model.GlobalModel
			err    error
		}
		done := make(chan serverRound, 1)
		go func() {
			g, _, err := env.srv.RunRoundOpts(transport.RoundOptions{Quorum: numSites, ExpectedSites: ids})
			done <- serverRound{g, err}
		}()
		heap.arm(true)
		start := time.Now()
		root := p.tr.begin("round", trace, -1)
		sites := make([]siteRun, numSites)
		var wg sync.WaitGroup
		for i := range in.sites {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sites[i] = runSite(env.srv.Addr(), in.sites[i], p.tr, trace, root)
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		p.tr.end(root)
		heap.arm(false)
		sr := <-done

		res.attempted++
		failed := sr.err != nil
		for i, s := range sites {
			if s.err != nil {
				failed = true
				continue
			}
			if ref != nil && !slices.Equal(s.labels, ref.Sites[ids[i]].Labels) {
				res.fail("round %d: %s labels differ from dbdc.Run on the same partition", r, ids[i])
			}
		}
		if failed {
			res.failed++
			continue
		}
		rounds = append(rounds, ms(elapsed))
		roundTime += elapsed
		points += w.n
		uplink = append(uplink, float64(env.srv.BytesIn()-in0))
		downlink = append(downlink, float64(env.srv.BytesOut()-out0))
		pubAt, pubDur, pubErr := env.lastPublish()
		if pubErr != nil || pubAt.Before(start) {
			res.fail("round %d: global model not published (%v)", r, pubErr)
		} else {
			fresh = append(fresh, ms(pubAt.Sub(start)))
			layers.add("serve.publish_ms.p50", ms(pubDur))
		}

		perSite := make([][]cluster.ID, numSites)
		for i, s := range sites {
			perSite[i] = s.labels
		}
		assembled, err := data.Assemble(in.part, perSite, w.n)
		if err != nil {
			return nil, err
		}
		if central != nil {
			q, err := quality.QDBDCPII(assembled, central)
			if err != nil {
				return nil, err
			}
			pii = append(pii, q)
		}

		// Readers of the fresh model: the classify tier must label a
		// round's own objects exactly as the sites relabeled them. The
		// round's garbage is collected first, so that the reads time the
		// serving path, not a collection the round left behind.
		runtime.GC()
		heap.arm(true)
		lat, mismatch, err := readRound(env.cls.Addr(), in.ds.Points, assembled, p.tr, trace)
		heap.arm(false)
		res.attempted += roundReads
		if err != nil {
			res.failed += roundReads - len(lat)
		}
		if mismatch > 0 {
			res.fail("round %d: classify tier disagrees with site labels on %d points", r, mismatch)
		}
		reads = append(reads, lat...)
		if snap := env.reg.Current(); snap != nil {
			layers.add("serve.classify_reps", float64(snap.Classifier.NumReps()))
		}

		if p.tr != nil {
			if err := checkReplay(p.tr, trace, sites, sr.global, layers); err != nil {
				res.fail("round %d: %v", r, err)
			}
		}
	}
	heapPeak := heap.close()

	res.timing("round_ms", rounds)
	res.timing("freshness_ms", fresh)
	res.timing("classify_ms", reads)
	res.e2e["uplink_bytes"] = median(uplink)
	res.e2e["downlink_bytes"] = median(downlink)
	res.e2e["quality_pii"] = median(pii)
	res.e2e["ingest_pts_per_s"] = float64(points) / roundTime.Seconds()
	res.e2e["heap_peak_mb"] = heapPeak
	res.e2e["setup_s"] = startup.Seconds() + median(gens) + median(refs) + median(centrals)
	res.primaryMS = median(rounds)
	res.notes = append(res.notes, fmt.Sprintf("%d rounds, %d checked against dbdc.Run and central DBSCAN; set-up: server %s, inputs %.3gs, dbdc.Run %.3gs, central %.3gs",
		len(rounds), len(pii), startup.Round(time.Microsecond), median(gens), median(refs), median(centrals)))
	if len(pii) == 0 {
		res.fail("quality_pii was computed on no round")
	}
	res.layers = layers.medians()
	res.layers["serve.versions"] = float64(env.reg.Published())
	return res, nil
}

// readRound sends roundReads classify requests for the round's objects
// and returns their latencies in ms, and how many served labels differ from
// the sites' labels.
func readRound(addr string, pts []geom.Point, labels cluster.Labeling, tr *tracer, trace string) ([]float64, int, error) {
	sp := tr.begin("serve.Client.ClassifyBatch", trace, -1)
	defer tr.end(sp)
	c, err := serve.Dial(addr, ioTimeout)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	lat := make([]float64, 0, roundReads)
	mismatch := 0
	stride := len(pts) / (roundReads * roundReadBatch)
	batch := make([]geom.Point, roundReadBatch)
	want := make([]cluster.ID, roundReadBatch)
	for q := 0; q < roundReads; q++ {
		for j := range batch {
			k := (q*roundReadBatch + j) * stride
			batch[j], want[j] = pts[k], labels[k]
		}
		t0 := time.Now()
		got, _, err := c.ClassifyBatch(batch)
		if err != nil {
			return lat, mismatch, err
		}
		lat = append(lat, ms(time.Since(t0)))
		for j := range got {
			if got[j] != want[j] {
				mismatch++
			}
		}
	}
	return lat, mismatch, nil
}

// checkReplay replays the traced round's server-side calls and checks that
// the replayed global model encodes to the same bytes as the one the server
// broadcast and the sites received.
func checkReplay(tr *tracer, trace string, sites []siteRun, global *model.GlobalModel, l layerSamples) error {
	g, err := replayRound(tr, trace, sites, l)
	if err != nil {
		return err
	}
	replayed, err := g.MarshalBinary()
	if err != nil {
		return err
	}
	for _, s := range append(sites, siteRun{global: global}) {
		got, err := s.global.MarshalBinary()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, replayed) {
			return fmt.Errorf("replayed global step differs from the broadcast global model")
		}
	}
	return nil
}

// replayRound records a round's per-layer values from its sites' calls and
// replays, off the round's clock, the server-side calls on the round's own
// local models: their encoding, the global step and the global model's
// decoding. It returns the replayed global model.
func replayRound(tr *tracer, trace string, sites []siteRun, l layerSamples) (*model.GlobalModel, error) {
	var localMax, localMin, clusterMax, condenseMax, exchMin, exchMax, relabelMax time.Duration
	var rq, reps float64
	models := make([]*model.LocalModel, 0, len(sites))
	var encode time.Duration
	for i, s := range sites {
		t := s.outcome.Timings
		if i == 0 || s.local < localMin {
			localMin = s.local
		}
		if i == 0 || s.exch < exchMin {
			exchMin = s.exch
		}
		localMax, exchMax = max(localMax, s.local), max(exchMax, s.exch)
		clusterMax, condenseMax = max(clusterMax, t.Cluster), max(condenseMax, t.Condense)
		relabelMax = max(relabelMax, s.relabel)
		rq += float64(s.outcome.Clustering.RangeQueries)
		reps += float64(len(s.outcome.Model.Reps))
		sp := tr.begin("model.LocalModel.MarshalBinary", trace, -1)
		_, err := s.outcome.Model.MarshalBinary()
		encode += tr.end(sp)
		if err != nil {
			return nil, err
		}
		models = append(models, s.outcome.Model)
	}
	l.add("dbdc.local_step_ms.max", ms(localMax))
	l.add("dbdc.local_step_ms.skew", float64(localMax)/float64(localMin))
	l.add("dbscan.cluster_ms.max", ms(clusterMax))
	l.add("dbscan.condense_ms.max", ms(condenseMax))
	l.add("dbscan.range_queries", rq)
	l.add("model.reps_local", reps)
	l.add("model.encode_us", us(encode))
	l.add("transport.exchange_ms.min", ms(exchMin))
	l.add("transport.wait_ms.max", ms(exchMax-exchMin))
	l.add("dbdc.relabel_ms.max", ms(relabelMax))
	l.add("dbdc.relabel_reps", float64(len(sites[0].global.Reps)))

	sort.Slice(models, func(i, j int) bool { return models[i].SiteID < models[j].SiteID })
	sp := tr.begin("dbdc.GlobalStep", trace, -1)
	g, err := dbdc.GlobalStep(models, benchConfig)
	l.add("dbdc.global_step_ms", ms(tr.end(sp)))
	if err != nil {
		return nil, err
	}
	l.add("model.global_reps", float64(len(g.Reps)))
	l.add("model.global_clusters", float64(g.NumClusters))
	wire, err := g.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var decoded model.GlobalModel
	sp = tr.begin("model.GlobalModel.UnmarshalBinary", trace, -1)
	err = decoded.UnmarshalBinary(wire)
	l.add("model.decode_us", us(tr.end(sp)))
	return g, err
}
