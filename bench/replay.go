package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// The replay knobs every workload shares: depmine's follow-mode defaults,
// pinned here so the traced pass mines with exactly the child's parameters.
const (
	replayBucketSec = 3600
	replayWindow    = 24
	replayMinLogs   = 10
	replayTimeout   = 1.0
)

// replaySpec is one replay workload: which technique follows how many
// simulator days, with or without the durability layer.
type replaySpec struct {
	name    string
	method  string // l1, l2 or l3
	days    int
	durable bool // -store, -resume and -drift on
	// unshifted replays the simulator's own week at every seed. L1 seeds
	// each (slot, pair) test's RNG from the slot's absolute start time, so a
	// corpus moved in time redraws every Monte-Carlo test and mines a
	// different model: over ten week shifts model_f1 spread by 6.6 % and the
	// document bytes by 3.3 %. L2 and L3 models are shift-invariant.
	unshifted bool
}

var replaySpecs = []replaySpec{
	{name: "replay-l1-plain", method: "l1", days: 2, unshifted: true},
	{name: "replay-l2-durable", method: "l2", days: 7, durable: true},
	{name: "replay-l3-plain", method: "l3", days: 14},
}

// State-directory layout of a durable pass (and of the traced pass).
const (
	storeDirName = "store"
	ckptFileName = "follow.ckpt"
)

// args returns the depmine command line that follows log with the spec's
// technique, keeping durable state under stateDir.
func (s replaySpec) args(c *corpus, log, stateDir string) []string {
	a := []string{"-method", s.method, "-follow", "-workers", "1"}
	if s.method == "l3" {
		a = append(a, "-dir", c.directory)
	}
	if s.durable {
		a = append(a, "-store", filepath.Join(stateDir, storeDirName),
			"-resume", filepath.Join(stateDir, ckptFileName), "-drift")
	}
	return append(a, log)
}

// pass is everything measured and checked on one child run.
type pass struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	RSSMB    float64 `json:"rss_mb"`
	Entries  int     `json:"entries"`
	Buckets  int     `json:"buckets"`
	Rejected int     `json:"rejected"` // late + corrupt + malformed + oversized
	Docs     int     `json:"docs"`
	DocBytes int64   `json:"doc_bytes"`
	// StateBytes is what the pass left under its state directory.
	StateBytes int64   `json:"state_bytes"`
	GapP50Ms   float64 `json:"doc_gap_ms_p50"`
	GapP90Ms   float64 `json:"doc_gap_ms_p90"`
	DocSHA     string  `json:"doc_sha"`
	StateSHA   string  `json:"state_sha"`
	StoreSHA   string  `json:"store_sha"`

	lastDoc []byte
	docSet  map[[sha256.Size]byte]bool // every document's hash, when asked for
}

var followDone = regexp.MustCompile(`follow done: (\d+) entries in (\d+) buckets \((\d+) late, (\d+) corrupt, (\d+) malformed, (\d+) oversized`)

// docScanner splits the child's stdout into model documents. depmine
// renders one indented JSON object per closed bucket, so the only '}' in
// column 0 is a document's last line.
type docScanner struct {
	lineStart bool // the next byte starts a line
	closing   bool // the current line began with '}'
	cur, last []byte
	ends      []int64                    // clock reading at which each document's last byte was read
	set       map[[sha256.Size]byte]bool // when non-nil, collects every document's hash
}

// feed consumes one chunk read from the pipe at clock reading now.
func (d *docScanner) feed(chunk []byte, now int64) {
	for len(chunk) > 0 {
		if d.lineStart {
			d.closing, d.lineStart = chunk[0] == '}', false
		}
		i := bytes.IndexByte(chunk, '\n')
		if i < 0 {
			d.cur = append(d.cur, chunk...)
			return
		}
		d.cur = append(d.cur, chunk[:i+1]...)
		if d.closing {
			d.ends = append(d.ends, now)
			if d.set != nil {
				d.set[sha256.Sum256(d.cur)] = true
			}
			d.last, d.cur = d.cur, d.last[:0]
		}
		d.lineStart = true
		chunk = chunk[i+1:]
	}
}

// runPass executes one depmine child of the spec over log.
func runPass(depmine string, s replaySpec, c *corpus, log, stateDir string) (*pass, error) {
	return runChild(depmine, s.name, s.args(c, log, stateDir), stateDir, false)
}

// runChild executes one depmine follow run in a fresh stateDir and measures
// it: wall from exec to exit, CPU and peak RSS from the child's rusage, the
// documents on its stdout and the bytes it left behind. With docSet on, the
// pass also carries the hash of every document printed.
func runChild(depmine, label string, args []string, stateDir string, docSet bool) (*pass, error) {
	if err := freshDir(stateDir); err != nil {
		return nil, err
	}
	cmd := exec.Command(depmine, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	sc := &docScanner{lineStart: true}
	if docSet {
		sc.set = make(map[[sha256.Size]byte]bool)
	}
	sum := sha256.New()
	p := &pass{}
	buf := make([]byte, 256<<10)
	start := obs.SystemClock()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lastPoll := start
	for {
		n, rerr := stdout.Read(buf)
		if n > 0 {
			now := obs.SystemClock()
			sc.feed(buf[:n], now)
			sum.Write(buf[:n])
			p.DocBytes += int64(n)
			// The child's high-water mark only grows, and its last document
			// leaves it when the work is done: the last reading is the peak.
			if now-lastPoll >= int64(rssPollEvery) {
				lastPoll = now
				if mb, err := peakRSS(cmd.Process.Pid); err == nil {
					p.RSSMB = mb
				}
			}
		}
		if rerr != nil {
			break // EOF, or the pipe closing under a dying child; Wait reports which
		}
	}
	werr := cmd.Wait()
	p.WallS = sec(obs.SystemClock() - start)
	if werr != nil {
		return nil, fmt.Errorf("%s: %w\n%s", label, werr, tail(stderr.Bytes(), 2000))
	}
	if p.RSSMB == 0 { //lint:allow floateq exactly 0 means no reading was ever stored
		return nil, fmt.Errorf("%s: the child's peak RSS was never read from /proc", label)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	p.CPUS = sec(ru.Utime.Nano() + ru.Stime.Nano())
	m := followDone.FindSubmatch(stderr.Bytes())
	if m == nil {
		return nil, fmt.Errorf("%s: no follow summary on stderr:\n%s", label, tail(stderr.Bytes(), 2000))
	}
	n := make([]int, 6)
	for i := range n {
		n[i], _ = strconv.Atoi(string(m[i+1])) // the regexp matched digits only
	}
	p.Entries, p.Buckets, p.Rejected = n[0], n[1], n[2]+n[3]+n[4]+n[5]
	p.Docs = len(sc.ends)
	p.lastDoc, p.docSet = sc.last, sc.set
	var gaps []float64
	for i := 1; i < len(sc.ends); i++ {
		gaps = append(gaps, ms(sc.ends[i]-sc.ends[i-1]))
	}
	p.GapP50Ms, p.GapP90Ms = percentile(gaps, 50), percentile(gaps, 90)
	p.DocSHA = hex.EncodeToString(sum.Sum(nil))
	if p.StateSHA, p.StateBytes, err = dirDigest(stateDir); err != nil {
		return nil, err
	}
	if p.StoreSHA, _, err = dirDigest(filepath.Join(stateDir, storeDirName)); err != nil {
		return nil, err
	}
	return p, nil
}

// rssPollEvery is the shortest pause between two readings of a replay
// child's peak RSS.
const rssPollEvery = 20 * time.Millisecond

// peakRSS reads a live process's resident-set high-water mark (VmHWM, MB)
// from /proc. wait4's ru_maxrss cannot be used for this: a child starts life
// on its parent's address space, and exec folds that space's high-water mark
// into the child's figure, so a small child of a harness that has just
// simulated a corpus would report the harness's peak, not its own. VmHWM
// belongs to the address space exec created.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	_, rest, ok := bytes.Cut(b, []byte("VmHWM:"))
	if !ok {
		return 0, fmt.Errorf("/proc/%d/status has no VmHWM line", pid)
	}
	fields := bytes.Fields(rest)
	if len(fields) < 2 || string(fields[1]) != "kB" {
		return 0, fmt.Errorf("/proc/%d/status: unexpected VmHWM line", pid)
	}
	kb, err := strconv.ParseFloat(string(fields[0]), 64)
	return kb / 1024, err
}

// tail returns at most the last n bytes of b.
func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// dirDigest hashes every regular file under dir — relative name, size and
// content, in lexical order — and returns the digest and the summed size.
// A missing or empty directory digests to the empty hash and 0 bytes.
func dirDigest(dir string) (string, int64, error) {
	sum := sha256.New()
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == dir && os.IsNotExist(err) {
				return fs.SkipAll
			}
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(sum, "%s\x00", rel)
		n, err := io.Copy(sum, f)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "\x00%d\x00", n)
		total += n
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(sum.Sum(nil)), total, nil
}

// runReplay is one run of a replay workload: set-up, timed passes until
// seconds have elapsed, and with trace on one traced in-process pass.
func runReplay(h *harness, s replaySpec) (*result, error) {
	res := newResult()
	work := filepath.Join(h.out, "work", s.name)
	stateDir := filepath.Join(work, "state")
	seed := h.seed
	if s.unshifted {
		seed = simSeed
	}
	start := obs.SystemClock()
	c, err := generateCorpus(filepath.Join(work, "corpus"), seed, s.days, logmodel.SecondsToMillis(replayBucketSec))
	if err != nil {
		return nil, err
	}
	if _, err := runPass(h.depmine, s, c, c.warm, stateDir); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	setupS := sec(obs.SystemClock() - start)

	var passes []*pass
	begin := obs.SystemClock()
	for len(passes) == 0 || sec(obs.SystemClock()-begin) < h.seconds {
		res.attempted++
		p, err := runPass(h.depmine, s, c, c.log, stateDir)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		first := passes[0]
		res.check(p.Entries == c.entries, "pass %d accepted %d entries, the corpus has %d", len(passes), p.Entries, c.entries)
		res.check(p.Rejected == 0, "pass %d rejected %d lines", len(passes), p.Rejected)
		res.check(p.Buckets == c.buckets && p.Docs == c.buckets, "pass %d closed %d buckets and printed %d documents, expected %d", len(passes), p.Buckets, p.Docs, c.buckets)
		res.check(p.DocSHA == first.DocSHA, "pass %d printed different documents than pass 1", len(passes))
		res.check(p.StateSHA == first.StateSHA, "pass %d left a different state directory than pass 1", len(passes))
	}
	res.timedS = sec(obs.SystemClock() - begin)
	res.passes = passes
	f1, err := c.f1(passes[0].lastDoc)
	if err != nil {
		return nil, err
	}

	col := func(f func(*pass) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	n := float64(c.entries)
	walls := col(func(p *pass) float64 { return p.WallS })
	res.e2e("entries_per_s", median(col(func(p *pass) float64 { return n / p.WallS })))
	res.e2e("cpu_us_per_entry", median(col(func(p *pass) float64 { return p.CPUS * 1e6 / n })))
	res.e2e("peak_rss_mb", median(col(func(p *pass) float64 { return p.RSSMB })))
	res.e2e("state_bytes_per_entry", float64(passes[0].DocBytes+passes[0].StateBytes)/n)
	res.e2e("model_f1", f1)
	res.e2e("setup_s", setupS)
	res.e2e("fresh_ms_p50", median(col(func(p *pass) float64 { return p.GapP50Ms })))
	res.e2e("fresh_ms_p90", median(col(func(p *pass) float64 { return p.GapP90Ms })))
	res.notef("%d passes, %d entries and %d documents each; fresh_ms_* here is the gap between consecutive documents on the child's stdout (%d samples per pass)",
		len(passes), c.entries, c.buckets, c.buckets-1)

	if h.trace {
		res.attempted++
		if err := tracedReplay(h, s, c, stateDir, passes[0], median(walls), res); err != nil {
			return nil, err
		}
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	return res, nil
}
