package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/dbdc-go/dbdc/internal/cluster"
	"github.com/dbdc-go/dbdc/internal/dbdc"
	"github.com/dbdc-go/dbdc/internal/dbscan"
	"github.com/dbdc-go/dbdc/internal/geom"
	"github.com/dbdc-go/dbdc/internal/index"
	"github.com/dbdc-go/dbdc/internal/model"
	"github.com/dbdc-go/dbdc/internal/quality"
	"github.com/dbdc-go/dbdc/internal/serve"
	"github.com/dbdc-go/dbdc/internal/stream"
	"github.com/dbdc-go/dbdc/internal/transport"
)

// Streaming deployment settings: the dbdc-site -stream defaults, and a
// fixed open-loop classify rate.
const (
	streamWindow    = 1000
	streamCheck     = 64
	streamThreshold = 0.15
	// classifyRate is in requests per second. At 4000, beside the
	// ingesting goroutine, requests queued behind one another (up to 181
	// due at once) and their tail spread by its own size between runs.
	classifyRate  = 1000
	classifyBatch = 32 // points per request
	queryPoolSize = 4096
	// setupReps is how often the stream stack is built per pass; setup_s
	// is the median.
	setupReps = 5
)

// uploadRec is one Upload call as the recording uploader saw it.
type uploadRec struct {
	site        int
	point       int       // index of the ingested point in the site's stream
	ingestStart time.Time // start of the Ingest call that uploaded
	start, end  time.Time
	res         *transport.UploadResult
	err         error
}

// publication is one registry publication made by the update server hook.
type publication struct {
	at      time.Time
	version uint64
	dur     time.Duration
}

// streamStack is the streaming deployment: an UpdateServer at debounce 0
// publishing into a registry behind a classify server, and numSites
// streaming sites uploading through StreamClients.
type streamStack struct {
	upd     *transport.UpdateServer
	updDone chan error
	reg     *serve.Registry
	cls     *serve.Server
	clsDone chan error
	sites   []*stream.Site
	gens    []*driftStream
	// recent holds the latest points each site ingested, in order: at
	// least its window, at most two. fed counts each site's points.
	recent [][]geom.Point
	fed    []int

	// Written by the ingesting goroutine only.
	ingestStart time.Time
	uploads     []uploadRec
	tr          *tracer
	trace       string
	ingestSpan  int

	// mu guards what the update server's hook reads and writes: the span
	// of the upload in flight, and the publications.
	mu     sync.Mutex
	upload spanRef
	pubs   []publication
	pubErr error
}

// spanRef names an open span for code running on another goroutine.
type spanRef struct {
	tr    *tracer
	trace string
	id    int
}

// recordingUploader wraps a site's StreamClient and logs every upload.
type recordingUploader struct {
	site   int
	client *transport.StreamClient
	stack  *streamStack
}

func (u *recordingUploader) Upload(full *model.LocalModel, delta *model.LocalDelta, stats *transport.StreamStats) (*transport.UploadResult, error) {
	st := u.stack
	sp := st.tr.begin("transport.StreamClient.Upload", st.trace, st.ingestSpan)
	st.mu.Lock()
	st.upload = spanRef{st.tr, st.trace, sp}
	st.mu.Unlock()
	rec := uploadRec{site: u.site, point: st.fed[u.site] - 1, ingestStart: st.ingestStart, start: time.Now()}
	rec.res, rec.err = u.client.Upload(full, delta, stats)
	rec.end = time.Now()
	st.tr.end(sp)
	st.uploads = append(st.uploads, rec)
	return rec.res, rec.err
}

// newStreamStack starts the deployment and fills every site's window, so
// measuring starts in the steady state.
func newStreamStack(seed int64) (*streamStack, error) {
	upd, err := transport.NewUpdateServer("127.0.0.1:0", benchConfig, ioTimeout)
	if err != nil {
		return nil, err
	}
	st := &streamStack{
		upd: upd, updDone: make(chan error, 1), clsDone: make(chan error, 1),
		reg: serve.NewRegistry(index.KindKDTree), ingestSpan: -1, upload: spanRef{id: -1},
	}
	upd.SetDebounce(0)
	upd.SetOnGlobal(func(g *model.GlobalModel) {
		st.mu.Lock()
		up := st.upload
		st.mu.Unlock()
		sp := up.tr.begin("serve.Registry.Publish", up.trace, up.id)
		t0 := time.Now()
		snap, err := st.reg.Publish(g)
		d := time.Since(t0)
		up.tr.end(sp)
		st.mu.Lock()
		defer st.mu.Unlock()
		if err != nil {
			st.pubErr = err
			return
		}
		st.pubs = append(st.pubs, publication{at: time.Now(), version: snap.Version, dur: d})
	})
	go func() { st.updDone <- upd.Serve(0) }()
	st.cls, err = serve.NewServer("127.0.0.1:0", serve.ServerConfig{Registry: st.reg, Timeout: ioTimeout})
	if err != nil {
		upd.Close()
		<-st.updDone
		return nil, err
	}
	go func() { st.clsDone <- st.cls.Serve() }()
	for i := 0; i < numSites; i++ {
		up := &recordingUploader{site: i, client: &transport.StreamClient{Addr: upd.Addr(), Timeout: ioTimeout}, stack: st}
		site, err := stream.NewSite(stream.Config{
			SiteID: siteID(i), Cluster: benchConfig,
			Window: streamWindow, Threshold: streamThreshold, CheckEvery: streamCheck,
		}, up)
		if err != nil {
			st.close()
			return nil, err
		}
		st.sites = append(st.sites, site)
		st.gens = append(st.gens, newDriftStream(siteSeed(seed, i), streamWindow))
		st.recent = append(st.recent, make([]geom.Point, 0, 2*streamWindow))
		st.fed = append(st.fed, 0)
	}
	for k := 0; k < numSites*streamWindow; k++ {
		if err := st.ingest(k % numSites); err != nil {
			st.close()
			return nil, fmt.Errorf("filling windows: %w", err)
		}
	}
	return st, nil
}

// ingest feeds site i its next stream point.
func (st *streamStack) ingest(i int) error {
	p := st.gens[i].next()
	if len(st.recent[i]) == 2*streamWindow {
		st.recent[i] = append(st.recent[i][:0], st.recent[i][streamWindow:]...)
	}
	st.recent[i] = append(st.recent[i], p)
	st.fed[i]++
	st.ingestStart = time.Now()
	return st.sites[i].Ingest(p)
}

func (st *streamStack) close() {
	st.upd.Close()
	<-st.updDone
	st.cls.Close()
	<-st.clsDone
}

func runStream(p pass) (*passResult, error) {
	res := &passResult{e2e: map[string]float64{}, layers: map[string]float64{}}
	var setups []float64
	var st *streamStack
	for r := 0; r < setupReps; r++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = newStreamStack(p.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	res.e2e["setup_s"] = median(setups)

	queries := queryStream(p.seed)

	st.tr = p.tr
	before := make([]stream.Stats, numSites)
	for i, s := range st.sites {
		before[i] = s.Stats()
	}
	up0 := len(st.uploads)
	st.mu.Lock()
	pub0 := len(st.pubs)
	st.mu.Unlock()

	loadDone := make(chan *openLoopResult, 1)
	heap := startHeapSampler()
	heap.arm(true)
	start := time.Now()
	go func() { loadDone <- openLoop(st.cls.Addr(), queries, classifyRate, p.seed, p.dur) }()
	// Sized up front so that the samples' growth stays out of heap_peak_mb.
	plain := make([]float64, 0, int(p.dur.Seconds()*2000))
	var checks, rebuilds []float64
	nChecks, nUploading, ingested, ingestErrs := 0, 0, 0, 0
	deadline := start.Add(p.dur)
	for k := 0; time.Now().Before(deadline); k++ {
		i := k % numSites
		n0 := len(st.uploads)
		if p.tr != nil {
			st.trace = fmt.Sprintf("%s/ingest-%d", siteID(i), k)
		}
		st.ingestSpan = p.tr.begin("stream.Site.Ingest", st.trace, -1)
		err := st.ingest(i)
		d := time.Since(st.ingestStart)
		p.tr.end(st.ingestSpan)
		ingested++
		if err != nil {
			ingestErrs++
		}
		switch {
		case len(st.uploads) > n0:
			nChecks++
			nUploading++
			for _, u := range st.uploads[n0:] {
				d -= u.end.Sub(u.start)
			}
			rebuilds = append(rebuilds, ms(d))
		case st.sites[i].Stats().Ingested%streamCheck == 0:
			nChecks++
			checks = append(checks, ms(d))
		default:
			plain = append(plain, us(d))
		}
	}
	ingestTime := time.Since(start)
	lr := <-loadDone
	heap.arm(false)
	res.e2e["heap_peak_mb"] = heap.close()

	// Uploads and their freshness.
	st.mu.Lock()
	pubs := append([]publication(nil), st.pubs[pub0:]...)
	pubErr := st.pubErr
	st.mu.Unlock()
	if pubErr != nil {
		res.fail("registry refused a global model: %v", pubErr)
	}
	var fresh, turnaround, uploadMS []float64
	perSite := make([][]float64, numSites)
	var sent, received int
	for _, u := range st.uploads[up0:] {
		res.attempted++
		if u.err != nil {
			res.failed++
			continue
		}
		sent += u.res.BytesSent
		received += u.res.BytesReceived
		d := ms(u.end.Sub(u.start))
		uploadMS = append(uploadMS, d)
		perSite[u.site] = append(perSite[u.site], d)
		if u.res.Resync {
			continue
		}
		turnaround = append(turnaround, ms(u.end.Sub(u.ingestStart)))
		k := sort.Search(len(pubs), func(j int) bool { return !pubs[j].at.Before(u.start) })
		for ; k < len(pubs) && pubs[k].version < u.res.GlobalVersion; k++ {
		}
		if k == len(pubs) {
			res.fail("upload acked at version %d was never published", u.res.GlobalVersion)
			continue
		}
		fresh = append(fresh, ms(pubs[k].at.Sub(u.ingestStart)))
	}
	if ingestErrs > res.failed {
		res.fail("%d ingests failed outside an upload", ingestErrs-res.failed)
	}
	res.attempted += lr.requests
	res.failed += lr.errors

	res.timing("round_ms", turnaround)
	res.timing("freshness_ms", fresh)
	res.timing("classify_ms", lr.latMS)
	res.e2e["uplink_bytes"] = float64(sent) / float64(ingested) * 1000
	res.e2e["downlink_bytes"] = float64(received) / float64(ingested) * 1000
	res.e2e["ingest_pts_per_s"] = float64(ingested) / ingestTime.Seconds()
	res.primaryMS = ms(ingestTime) / float64(ingested)

	l := res.layers
	l["incdbscan.ingest_us.p50"] = median(plain)
	l["incdbscan.ingest_us.tail"] = summarize(plain).Tail
	l["stream.check_ms.p50"] = median(checks)
	l["stream.rebuild_ms.p50"] = median(rebuilds)
	l["stream.upload_frac"] = float64(nUploading) / float64(nChecks)
	l["transport.upload_ms.p50"] = median(uploadMS)
	ex := []float64{median(perSite[0]), median(perSite[1])}
	l["transport.exchange_ms.min"] = min(ex[0], ex[1])
	l["transport.wait_ms.max"] = max(ex[0], ex[1]) - min(ex[0], ex[1])
	var pubMS []float64
	for _, pb := range pubs {
		pubMS = append(pubMS, ms(pb.dur))
	}
	l["serve.publish_ms.p50"] = median(pubMS)
	l["serve.versions"] = float64(len(pubs))
	l["loadgen.late_ms.max"] = lr.lateMS
	l["loadgen.max_queue"] = float64(lr.maxQueue)
	for i, s := range st.sites {
		now := s.Stats()
		l["stream.uploads"] += float64(now.Uploads - before[i].Uploads)
		l["stream.resyncs"] += float64(now.Resyncs - before[i].Resyncs)
		checkTurns(res, i, st.uploads[up0:], int(before[i].Ingested), int(now.Ingested))
	}
	res.notes = append(res.notes, fmt.Sprintf("%d points ingested, %d uploads, %d publications",
		ingested, len(st.uploads)-up0, len(pubs)))

	if err := checkServed(res, st, p, ex); err != nil {
		return nil, err
	}
	return res, nil
}

// siteSeed derives site i's stream seed from the workload seed.
func siteSeed(seed int64, i int) int64 { return seed<<8 | int64(i) }

// queryStream draws the classify traffic from the sites' own stream
// distribution: every queryStride-th point of fresh copies of their
// streams, so queries follow the roaming blobs through the window turns.
func queryStream(seed int64) []geom.Point {
	const queryStride = 8
	out := make([]geom.Point, 0, queryPoolSize)
	for i := 0; i < numSites; i++ {
		g := newDriftStream(siteSeed(seed, i), streamWindow)
		for len(out) < (i+1)*queryPoolSize/numSites {
			for k := 1; k < queryStride; k++ {
				g.next()
			}
			out = append(out, g.next())
		}
	}
	return out
}

// checkTurns fails the pass if a window turn lying wholly inside the
// measured phase, points [from, to) of site i, passed without an upload:
// the drifting blob must keep the change policy firing.
func checkTurns(res *passResult, i int, uploads []uploadRec, from, to int) {
	uploaded := map[int]bool{}
	for _, u := range uploads {
		if u.site == i {
			uploaded[u.point/streamWindow] = true
		}
	}
	for t := (from + streamWindow - 1) / streamWindow; (t+1)*streamWindow <= to; t++ {
		if !uploaded[t] {
			res.fail("%s: no upload during window turn %d", siteID(i), t)
		}
	}
}

// checkServed flushes the sites and checks the served model against a
// from-scratch computation over the final windows: dbdc.GlobalStep over
// each window's dbdc.LocalStep model must partition the representatives as
// the served model does, up to renaming of cluster ids. It also measures
// quality_pii of the served model on the windows' points against central
// DBSCAN, and records the replayed calls' per-layer values.
func checkServed(res *passResult, st *streamStack, p pass, exch []float64) error {
	for i, s := range st.sites {
		if err := s.Flush(); err != nil {
			res.fail("%s: final flush: %v", siteID(i), err)
			return nil
		}
	}
	snap := st.reg.Current()
	if snap == nil {
		res.fail("no model served after the final flush")
		return nil
	}
	if v := st.upd.Version(); snap.Version != v {
		res.fail("registry serves version %d, update server is at %d", snap.Version, v)
	}
	sites := make([]siteRun, numSites)
	var pts []geom.Point
	for i := range sites {
		window := st.recent[i][len(st.recent[i])-streamWindow:]
		pts = append(pts, window...)
		s := &sites[i]
		sp := p.tr.begin("dbdc.LocalStep", "final", -1)
		out, err := dbdc.LocalStep(siteID(i), window, benchConfig)
		s.local = p.tr.end(sp)
		if err != nil {
			return err
		}
		s.outcome, s.global, s.exch = out, snap.Global, time.Duration(exch[i]*float64(time.Millisecond))
		sp = p.tr.begin("dbdc.RelabelSite", "final", -1)
		_, _, err = dbdc.RelabelSite(out, snap.Global)
		s.relabel = p.tr.end(sp)
		if err != nil {
			return err
		}
	}
	layers := layerSamples{}
	g, err := replayRound(p.tr, "final", sites, layers)
	if err != nil {
		return err
	}
	if p.tr != nil {
		for k, v := range layers.medians() {
			res.layers[k] = v
		}
	}
	if !sameRepPartition(snap.Global, g) {
		res.fail("served model does not partition the representatives like dbdc.GlobalStep over the final windows")
	}

	served := make([]cluster.ID, len(pts))
	if err := snap.Classifier.ClassifyBatch(pts, served); err != nil {
		return err
	}
	idx, err := index.Build(index.KindRStar, pts, geom.Euclidean{}, benchConfig.Local.Eps)
	if err != nil {
		return err
	}
	central, err := dbscan.Run(idx, benchConfig.Local, dbscan.Options{})
	if err != nil {
		return err
	}
	q, err := quality.QDBDCPII(served, central.Labels)
	if err != nil {
		return err
	}
	res.e2e["quality_pii"] = q
	res.layers["serve.classify_reps"] = float64(snap.Classifier.NumReps())
	return nil
}

// repKey identifies a global representative by origin and geometry.
type repKey struct {
	site string
	x, y float64
	eps  float64
}

// sameRepPartition reports whether a and b hold the same representatives
// and group them into the same clusters, whatever the cluster ids.
func sameRepPartition(a, b *model.GlobalModel) bool {
	if len(a.Reps) != len(b.Reps) {
		return false
	}
	index := func(g *model.GlobalModel) map[repKey]cluster.ID {
		m := make(map[repKey]cluster.ID, len(g.Reps))
		for _, r := range g.Reps {
			m[repKey{r.SiteID, r.Point[0], r.Point[1], r.Eps}] = r.GlobalCluster
		}
		return m
	}
	ma, mb := index(a), index(b)
	keys := make([]repKey, 0, len(ma))
	for k := range ma {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ki, kj := keys[i], keys[j]
		if ki.site != kj.site {
			return ki.site < kj.site
		}
		if ki.x != kj.x {
			return ki.x < kj.x
		}
		if ki.y != kj.y {
			return ki.y < kj.y
		}
		return ki.eps < kj.eps
	})
	la := make(cluster.Labeling, len(keys))
	lb := make(cluster.Labeling, len(keys))
	for i, k := range keys {
		id, ok := mb[k]
		if !ok {
			return false
		}
		la[i], lb[i] = ma[k], id
	}
	return len(ma) == len(mb) && la.EquivalentTo(lb)
}
