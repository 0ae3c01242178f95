package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// daemon-live: one depmined child hosting liveTenants, each tailing its own
// file while an open-loop generator appends to it on a fixed schedule and a
// prober asks for every bucket's model the moment it is due.
const (
	liveName      = "daemon-live"
	liveBucketSec = 300
	liveWindow    = 12
	liveStartHour = 7 // the replayed slice of each simulated day starts at 07:00
	liveMaxHours  = 24 - liveStartHour

	liveBucketWall = 250 * time.Millisecond // wall time per stream bucket, per tenant
	liveTick       = 10 * time.Millisecond  // append granularity
	liveVisible    = 2 * time.Second        // a bucket not visible this long after it is due has failed
	liveProbeEvery = time.Millisecond       // pause between two status polls
	liveLeadIn     = 200 * time.Millisecond // PUTs settle before the first append
	livePool       = 2
)

// liveTenants names the tenants and their techniques; tenant i replays
// simulated day i.
var liveTenants = []struct{ name, method string }{
	{"l2-a", "l2"}, {"l2-b", "l2"}, {"l3-a", "l3"}, {"l3-b", "l3"},
}

// tenantInput is one tenant's generated input and the reference outputs a
// solo depmine run over the complete file produced.
type tenantInput struct {
	name, method string
	plan         plan
	feed         string // the file the tenant tails
	key          string // a dependency key of the reference's final document
	ref          *pass  // the solo run
}

// solo returns the depmine flags of the tenant's solo reference run,
// keeping its durable state under stateDir.
func (t *tenantInput) solo(c *corpus, stateDir string) []string {
	a := []string{"-method", t.method, "-follow", "-workers", "0",
		"-bucket", strconv.Itoa(liveBucketSec), "-window", strconv.Itoa(liveWindow), "-drift",
		"-store", filepath.Join(stateDir, storeDirName), "-resume", filepath.Join(stateDir, ckptFileName)}
	if t.method == "l3" {
		a = append(a, "-dir", c.directory)
	} else {
		a = append(a, "-timeout", "1")
	}
	return a
}

// config is the tenant's PUT body; it mirrors solo's flags knob for knob.
func (t *tenantInput) config(c *corpus, live bool) []byte {
	cfg := map[string]any{
		"method": t.method, "source": t.feed, "workers": 0,
		"bucket_sec": liveBucketSec, "window_buckets": liveWindow,
		"drift": true, "live": live,
	}
	if t.method == "l3" {
		cfg["directory"] = c.directory
	} else {
		cfg["timeout_sec"] = 1
	}
	b, _ := json.Marshal(cfg) // plain strings and numbers
	return b
}

// setupLive generates every tenant's schedule and reference: the seeded
// landscape, one simulated day per tenant cut to the run's length, the
// complete file each tenant will have tailed, and a solo depmine run over
// it whose documents and store the daemon must reproduce byte for byte.
func setupLive(h *harness, work string, buckets int) (*corpus, []*tenantInput, error) {
	dir := filepath.Join(work, "input")
	if err := freshDir(dir); err != nil {
		return nil, nil, err
	}
	c := &corpus{simulation: newSimulation(h.seed, len(liveTenants)), directory: filepath.Join(dir, "directory.xml")}
	if err := c.writeDirectory(c.directory); err != nil {
		return nil, nil, err
	}
	width := logmodel.SecondsToMillis(liveBucketSec)
	var tenants []*tenantInput
	for i, lt := range liveTenants {
		store, _ := c.sim.GenerateDay(i)
		start := c.sim.DayRange(i).Start + liveStartHour*logmodel.MillisPerHour
		r := logmodel.TimeRange{Start: start, End: start + logmodel.Millis(buckets)*width}
		t := &tenantInput{name: lt.name, method: lt.method, feed: filepath.Join(dir, lt.name+".log")}
		t.plan = planTenant(store.Range(r), pacing{
			Start: start, Width: width,
			BucketWall: int64(liveBucketWall), Tick: int64(liveTick),
			Offset: int64(liveBucketWall) * int64(i) / int64(len(liveTenants)),
		})
		if t.plan.Buckets != buckets {
			return nil, nil, fmt.Errorf("tenant %s: %d of %d buckets are empty; the schedule needs traffic in every one", t.name, buckets-t.plan.Buckets, buckets)
		}
		full := filepath.Join(dir, lt.name+".full.log")
		err := writeSynced(full, func(w *bufio.Writer) error {
			for _, chunk := range t.plan.Ticks {
				if _, err := w.Write(chunk); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		refState := filepath.Join(work, "ref-state")
		t.ref, err = runChild(h.depmine, "solo "+t.name, append(t.solo(c, refState), full), refState, true)
		if err != nil {
			return nil, nil, err
		}
		doc, err := core.ReadModel(bytes.NewReader(t.ref.lastDoc))
		if err != nil {
			return nil, nil, fmt.Errorf("tenant %s reference: %w", t.name, err)
		}
		if t.key = firstKey(doc); t.key == "" {
			return nil, nil, fmt.Errorf("tenant %s: the reference's final model is empty", t.name)
		}
		tenants = append(tenants, t)
	}
	return c, tenants, nil
}

// daemonProc is the depmined child and an HTTP client for its control API.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	stderr bytes.Buffer
	drain  sync.WaitGroup //lint:allow bareconc joins the stderr-draining goroutine of a child process; process-edge I/O, not mining fan-out
	waited bool
}

// startDaemon launches depmined on an ephemeral port and waits for it to
// announce its control API address on stderr.
func startDaemon(depmined, stateDir string) (*daemonProc, error) {
	d := &daemonProc{client: &http.Client{Timeout: 10 * time.Second}}
	d.cmd = exec.Command(depmined, "-listen", "127.0.0.1:0", "-state", stateDir, "-pool", strconv.Itoa(livePool))
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	r := bufio.NewReader(pipe)
	for d.base == "" {
		line, err := r.ReadString('\n')
		d.stderr.WriteString(line)
		if i := strings.Index(line, "control API on "); i >= 0 {
			d.base = strings.Fields(line[i+len("control API on "):])[0]
		} else if err != nil {
			return nil, fmt.Errorf("depmined exited before announcing its address:\n%s", d.log())
		}
	}
	d.drain.Add(1)
	go func() { //lint:allow bareconc drains the child's stderr so it never blocks on a full pipe; joined in stop before Wait
		defer d.drain.Done()
		io.Copy(&d.stderr, r)
	}()
	return d, nil
}

// log stops the daemon and returns the tail of what it wrote to stderr, for
// an error message. The buffer is only safe to read once the child is gone.
func (d *daemonProc) log() []byte {
	d.stop()
	return tail(d.stderr.Bytes(), 2000)
}

// stop sends SIGTERM, waits for the child and returns its resource usage.
// It is safe to call twice; the second call does nothing.
func (d *daemonProc) stop() (*syscall.Rusage, error) {
	if d.waited {
		return nil, nil
	}
	d.waited = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	d.drain.Wait()
	err := d.cmd.Wait()
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, err
}

// do issues one request and returns the status code, the body and the
// round-trip time in nanoseconds.
func (d *daemonProc) do(method, path string, body []byte) (int, []byte, int64, error) {
	start := obs.SystemClock()
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, obs.SystemClock() - start, err
}

// streamStatus is the part of GET /streams/{name} the harness reads.
type streamStatus struct {
	State   string `json:"state"`
	Buckets int    `json:"buckets"`
	Totals  *struct {
		Entries   int `json:"entries"`
		Buckets   int `json:"buckets"`
		Late      int `json:"late"`
		Corrupt   int `json:"corrupt"`
		Malformed int `json:"malformed"`
		Oversized int `json:"oversized"`
	} `json:"totals"`
}

func (d *daemonProc) status(name string) (streamStatus, int64, error) {
	var st streamStatus
	code, b, ns, err := d.do("GET", "/streams/"+name, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /streams/%s: status %d: %s", name, code, b)
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, ns, err
}

// sleepUntil sleeps until the clock reads at.
func sleepUntil(at int64) {
	if d := at - obs.SystemClock(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// generate is the open-loop generator: at every tick it appends what each
// tenant's plan says is due, however late the previous tick ran, and
// returns how late (ms) each appending tick began.
func generate(start int64, tenants []*tenantInput, feeds []*os.File) ([]float64, error) {
	ticks := 0
	for _, t := range tenants {
		ticks = max(ticks, len(t.plan.Ticks))
	}
	var late []float64
	for i := 0; i < ticks; i++ {
		due := start + int64(i)*int64(liveTick)
		sleepUntil(due)
		wrote := false
		for j, t := range tenants {
			if i < len(t.plan.Ticks) && len(t.plan.Ticks[i]) > 0 {
				if !wrote {
					late = append(late, ms(obs.SystemClock()-due))
					wrote = true
				}
				if _, err := feeds[j].Write(t.plan.Ticks[i]); err != nil {
					return late, err
				}
			}
		}
	}
	return late, nil
}

// probe is one bucket of one tenant the prober must see.
type probe struct {
	tenant int
	need   int // delivered buckets that make this one visible
	closing
}

// probed is what the prober measured.
type probed struct {
	freshMs, statusMs, modelMs, queryMs, pollGapMs []float64
	lagMax                                         int
	attempted                                      int
	failures                                       []string
}

// runProbes is the prober: for each bucket in due order it waits for the
// due time, polls the tenant's status until the bucket is delivered, fetches
// the tenant's model — freshness is due → model returned — and asks one
// history question, rotating over model-at, diff and trajectory.
func runProbes(d *daemonProc, start int64, tenants []*tenantInput, probes []probe) *probed {
	out := &probed{}
	fail := func(format string, args ...any) { out.failures = append(out.failures, fmt.Sprintf(format, args...)) }
	for i, p := range probes {
		t := tenants[p.tenant]
		due := start + p.Due
		sleepUntil(due)
		out.attempted += 2 // the bucket and the history query
		visible, lastPoll := false, int64(0)
		for n := 0; ; n++ {
			now := obs.SystemClock()
			if n > 0 {
				out.pollGapMs = append(out.pollGapMs, ms(now-lastPoll))
			}
			lastPoll = now
			st, ns, err := d.status(t.name)
			if err != nil {
				fail("%v", err)
				break
			}
			out.statusMs = append(out.statusMs, ms(ns))
			if n == 0 {
				out.lagMax = max(out.lagMax, p.need-st.Buckets)
			}
			if st.Buckets >= p.need {
				visible = true
				break
			}
			if obs.SystemClock()-due > int64(liveVisible) {
				fail("%s bucket %d not visible %v after its closing line was due", t.name, p.need, liveVisible)
				break
			}
			time.Sleep(liveProbeEvery)
		}
		if !visible {
			out.freshMs = append(out.freshMs, ms(int64(liveVisible)))
			continue
		}
		code, body, ns, err := d.do("GET", "/streams/"+t.name+"/model", nil)
		out.freshMs = append(out.freshMs, ms(obs.SystemClock()-due))
		out.modelMs = append(out.modelMs, ms(ns))
		switch {
		case err != nil || code != http.StatusOK:
			fail("GET %s/model: status %d, %v", t.name, code, err)
		case !t.ref.docSet[sha256.Sum256(body)]:
			fail("GET %s/model for bucket %d returned a document the solo run never printed", t.name, p.need)
		}
		// History instants are hour ends: the compaction ladder retains
		// every hour's last record, so they stay answerable all run long.
		hour := logmodel.Millis(logmodel.MillisPerHour)
		from := p.End
		if first := t.plan.Closes[0].End; p.End-first >= hour {
			from = (first/hour+1)*hour + (p.End-first)/2/hour*hour
		}
		var q string
		switch i % 3 {
		case 0:
			q = fmt.Sprintf("/model?at=%d", from)
		case 1:
			q = fmt.Sprintf("/diff?from=%d&to=%d", from, p.End)
		default:
			q = "/trajectory?key=" + url.QueryEscape(t.key)
		}
		code, body, ns, err = d.do("GET", "/streams/"+t.name+q, nil)
		out.queryMs = append(out.queryMs, ms(ns))
		if err != nil || code != http.StatusOK {
			fail("GET %s%s: status %d, %v: %s", t.name, q, code, err, tail(body, 200))
		}
	}
	return out
}

// checkTenants holds every tenant to tenant ≡ solo — the daemon's documents
// and store must equal, byte for byte, what a solo depmine printed and
// stored over the same complete file — and returns the tenants' mean F1.
func checkTenants(res *result, c *corpus, tenants []*tenantInput, stateDir string) (float64, error) {
	var meanF1 float64
	for _, t := range tenants {
		res.attempted++
		dir := filepath.Join(stateDir, t.name)
		out, err := os.ReadFile(filepath.Join(dir, "out.log"))
		if err != nil {
			return 0, err
		}
		sum := sha256.Sum256(out)
		res.check(hex.EncodeToString(sum[:]) == t.ref.DocSHA, "tenant %s printed different documents than a solo depmine run", t.name)
		sha, _, err := dirDigest(filepath.Join(dir, storeDirName))
		if err != nil {
			return 0, err
		}
		res.check(sha == t.ref.StoreSHA, "tenant %s left a different store than a solo depmine run", t.name)
		f1, err := c.f1(t.ref.lastDoc)
		if err != nil {
			return 0, err
		}
		meanF1 += f1 / float64(len(tenants))
	}
	return meanF1, nil
}

// runLive is one run of daemon-live.
func runLive(h *harness) (*result, error) {
	res := newResult()
	buckets := int(h.seconds * float64(time.Second) / float64(liveBucketWall))
	if limit := liveMaxHours * 3600 / liveBucketSec; buckets < 2 || buckets > limit {
		return nil, fmt.Errorf("-seconds %g is %d buckets per tenant; the schedule needs 2 to %d (one simulated day from %02d:00)", h.seconds, buckets, limit, liveStartHour)
	}
	work := filepath.Join(h.out, "work", liveName)
	setupStart := obs.SystemClock()
	c, tenants, err := setupLive(h, work, buckets)
	if err != nil {
		return nil, err
	}
	setupS := sec(obs.SystemClock() - setupStart)

	stateDir := filepath.Join(work, "state")
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	feeds := make([]*os.File, len(tenants))
	for i, t := range tenants {
		f, err := os.OpenFile(t.feed, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		feeds[i] = f
	}
	d, err := startDaemon(h.depmined, stateDir)
	if err != nil {
		return nil, err
	}
	defer d.stop() // error paths; the success path stops it below for its rusage

	var putMs []float64
	put := func(t *tenantInput, live bool) error {
		code, b, ns, err := d.do("PUT", "/streams/"+t.name, t.config(c, live))
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, b)
		}
		if err != nil {
			return fmt.Errorf("PUT /streams/%s: %w", t.name, err)
		}
		putMs = append(putMs, ms(ns))
		return nil
	}
	for _, t := range tenants {
		if err := put(t, true); err != nil {
			return nil, err
		}
	}

	var probes []probe
	for i, t := range tenants {
		for k, cl := range t.plan.Closes {
			probes = append(probes, probe{tenant: i, need: k + 1, closing: cl})
		}
	}
	sort.SliceStable(probes, func(i, j int) bool { return probes[i].Due < probes[j].Due })

	start := obs.SystemClock() + int64(liveLeadIn)
	var late []float64
	var genErr error
	var pr *probed
	var wg sync.WaitGroup //lint:allow bareconc joins the generator and the prober, the open loop's two independent clocks; the harness mines nothing
	wg.Add(2)
	go func() { //lint:allow bareconc the open-loop generator must keep its schedule while the prober waits on the daemon; joined by wg.Wait below
		defer wg.Done()
		late, genErr = generate(start, tenants, feeds)
	}()
	go func() { //lint:allow bareconc the prober blocks on HTTP round trips the generator must not wait for; joined by wg.Wait below
		defer wg.Done()
		pr = runProbes(d, start, tenants, probes)
	}()
	wg.Wait()
	if genErr != nil {
		return nil, fmt.Errorf("generator: %w", genErr)
	}

	// Drain: re-PUT every tenant as a non-live stream, which resumes it
	// from its checkpoint, reads to the end of its file and flushes the
	// last bucket; then wait for every engine to finish.
	drainStart := obs.SystemClock()
	for _, t := range tenants {
		if err := put(t, false); err != nil {
			return nil, err
		}
	}
	accepted := 0
	for _, t := range tenants {
		var st streamStatus
		for st.State != "done" {
			if st, _, err = d.status(t.name); err != nil {
				return nil, err
			}
			if st.State == "failed" || obs.SystemClock()-drainStart > int64(30*time.Second) {
				return nil, fmt.Errorf("tenant %s did not drain: state %q\n%s", t.name, st.State, d.log())
			}
			time.Sleep(liveProbeEvery)
		}
		res.attempted++
		res.check(st.Totals.Entries == t.plan.Entries && st.Totals.Buckets == t.plan.Buckets,
			"tenant %s accepted %d entries in %d buckets, scheduled %d in %d", t.name, st.Totals.Entries, st.Totals.Buckets, t.plan.Entries, t.plan.Buckets)
		res.check(st.Totals.Late+st.Totals.Corrupt+st.Totals.Malformed+st.Totals.Oversized == 0, "tenant %s rejected lines: %+v", t.name, *st.Totals)
		accepted += st.Totals.Entries
	}
	done := obs.SystemClock()
	res.timedS = sec(done - start)

	var pool struct {
		Pool map[string]float64 `json:"pool"`
	}
	code, b, _, err := d.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d, %v", code, err)
	}
	if err := json.Unmarshal(b, &pool); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	// Read before the daemon goes: see peakRSS for why rusage will not do.
	rssMB, err := peakRSS(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	ru, err := d.stop()
	if err != nil {
		return nil, fmt.Errorf("depmined: %w\n%s", err, d.log())
	}

	meanF1, err := checkTenants(res, c, tenants, stateDir)
	if err != nil {
		return nil, err
	}
	_, stateBytes, err := dirDigest(stateDir)
	if err != nil {
		return nil, err
	}

	res.attempted += pr.attempted
	for _, f := range pr.failures {
		res.check(false, "%s", f)
	}
	n := float64(accepted)
	res.e2e("entries_per_s", n/sec(done-start)) // tick 0 holds tenant 0's first line
	res.e2e("cpu_us_per_entry", float64(ru.Utime.Nano()+ru.Stime.Nano())/1e3/n)
	res.e2e("peak_rss_mb", rssMB)
	res.e2e("state_bytes_per_entry", float64(stateBytes)/n)
	res.e2e("model_f1", meanF1)
	res.e2e("setup_s", setupS)
	res.e2e("fresh_ms_p50", percentile(pr.freshMs, 50))
	res.e2e("fresh_ms_p90", percentile(pr.freshMs, 90))
	res.raw["fresh_ms_quartiles"] = []float64{percentile(pr.freshMs, 25), percentile(pr.freshMs, 50), percentile(pr.freshMs, 75), percentile(pr.freshMs, 90), percentile(pr.freshMs, 100)}
	res.notef("%d tenants × %d buckets, %d entries offered over %.1f s (%.0f/s); %d freshness samples, %d status polls",
		len(tenants), buckets, accepted, sec(int64(buckets)*int64(liveBucketWall)), n/sec(int64(buckets)*int64(liveBucketWall)), len(pr.freshMs), len(pr.statusMs))

	res.layer("daemon.status_ms_p50", percentile(pr.statusMs, 50))
	res.layer("daemon.model_ms_p50", percentile(pr.modelMs, 50))
	res.layer("daemon.model_ms_p90", percentile(pr.modelMs, 90))
	res.layer("daemon.query_ms_p50", percentile(pr.queryMs, 50))
	res.layer("daemon.query_ms_p90", percentile(pr.queryMs, 90))
	res.layer("daemon.put_ms", median(putMs))
	res.layer("daemon.lag_buckets_max", float64(pr.lagMax))
	res.layer("daemon.drain_s", sec(done-drainStart))
	res.layer("parallel.pool_helpers", pool.Pool["helpers"])
	res.layer("parallel.pool_handoffs", pool.Pool["handoffs"])
	res.layer("parallel.pool_misses", pool.Pool["misses"])
	res.layer("harness.gen_late_ms_p90", percentile(late, 90))
	res.layer("harness.probe_period_ms", percentile(pr.pollGapMs, 50))
	if h.trace {
		// The history queries again, in process and without HTTP or the
		// tenant lock, over the stores the run left: the store's share of
		// daemon.query_ms.
		rec := newRecorder(obs.SystemClock)
		for _, t := range tenants {
			if err := stagedQueries(rec, filepath.Join(stateDir, t.name, storeDirName), t.key); err != nil {
				return nil, err
			}
		}
		for _, q := range []string{"model", "diff", "traj"} {
			res.layer("modelstore.query_"+q+"_ms_p50", percentile(rec.durations("modelstore.query_"+q), 50)/1e6)
		}
		dump := filepath.Join(h.out, fmt.Sprintf("trace-%s-seed%d.jsonl", liveName, h.seed))
		if err := rec.dump(dump); err != nil {
			return nil, err
		}
		res.notef("spans written to %s", dump)
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	return res, nil
}
