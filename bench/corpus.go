package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"logscape/internal/core"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
)

// warmLines is the length of the corpus prefix the untimed warm-up pass
// mines: enough to page in the binary, the directory and the head of the
// corpus, short enough that even L1 finishes it in a fraction of a second.
const warmLines = 20000

// simSeed is the simulator seed behind every input: the hospital's topology,
// its ground truth and the traffic of each simulated day. The benchmark's
// -seed does not pick another hospital or another fortnight of traffic; it
// moves the same fortnight in time, by (seed − simSeed) mod seedWeeks whole
// weeks, so seed 2005 is the paper's week of 2005-12-06.
//
// Why so little: model_f1 and state_bytes_per_entry are functions of the
// input alone, and the driver bounds each metric's spread over runs at
// *different* seeds. Over ten seeds of fresh traffic those two spread by
// 19 % and 21 % on replay-l1-plain (a two-day L1 model is a handful of
// statistically marginal pairs), which no bound could hold. Shifted by
// weeks, no two seeds share a log line, a bucket index or a segment name,
// weekdays stay weekdays, and the mined models — hence both metrics — repeat
// exactly, so their bounds can be tight enough to guard something.
const (
	simSeed   = 2005
	seedWeeks = 520
)

// simulation is the hospital landscape with its ground-truth models, and the
// traffic simulator over it, placed in time by the seed.
type simulation struct {
	topo  *hospital.Topology
	sim   *hospital.Simulator
	pairs core.PairSet
	deps  core.AppServiceSet
}

// newSimulation builds the landscape and its simulator (scale 1), day 0
// being the seed's Tuesday.
func newSimulation(seed int64, days int) *simulation {
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), simSeed)
	cfg := hospital.DefaultConfig(simSeed)
	cfg.Days = days
	weeks := ((seed-simSeed)%seedWeeks + seedWeeks) % seedWeeks
	cfg.Start += logmodel.Millis(weeks) * 7 * logmodel.MillisPerDay
	return &simulation{
		topo:  topo,
		sim:   hospital.NewSimulator(cfg, topo),
		pairs: core.PairSet(topo.TrueAppPairs()),
		deps:  core.AppServiceSet(topo.TrueAppServicePairs()),
	}
}

// writeDirectory writes the landscape's service directory (L3's input).
func (s *simulation) writeDirectory(path string) error {
	return writeSynced(path, func(w *bufio.Writer) error { return s.topo.Directory().Write(w) })
}

// f1 scores a model document against the landscape's ground truth: unordered
// application pairs for L1/L2 documents, app→service dependencies for L3.
func (s *simulation) f1(doc []byte) (float64, error) {
	d, err := core.ReadModel(bytes.NewReader(doc))
	if err != nil {
		return 0, fmt.Errorf("scoring model document: %w", err)
	}
	if d.Technique == "l3" {
		return core.CompareAppService(d.DepSet(), s.deps, 0).F1(), nil
	}
	return core.ComparePairs(d.PairSet(), s.pairs, 0).F1(), nil
}

// corpus is a replay workload's generated input on disk.
type corpus struct {
	*simulation
	log       string // the simulated days, concatenated, wire format
	warm      string // the first warmLines lines of log
	directory string // service-directory XML
	entries   int
	buckets   int // non-empty buckets at the replay bucket width
}

// generateCorpus simulates days days at the seed and writes them, a warm-up
// prefix and the service directory under dir, synced to disk so no timed
// pass runs against a corpus still being written back.
func generateCorpus(dir string, seed int64, days int, bucketWidth logmodel.Millis) (*corpus, error) {
	if err := freshDir(dir); err != nil {
		return nil, err
	}
	c := &corpus{
		simulation: newSimulation(seed, days),
		log:        filepath.Join(dir, "corpus.log"),
		warm:       filepath.Join(dir, "warm.log"),
		directory:  filepath.Join(dir, "directory.xml"),
	}
	if err := c.writeDirectory(c.directory); err != nil {
		return nil, err
	}
	lastBucket := int64(-1 << 62)
	err := writeSynced(c.log, func(w *bufio.Writer) error {
		for d := 0; d < days; d++ {
			store, _ := c.sim.GenerateDay(d)
			es := store.Entries()
			if d == 0 {
				head := logmodel.NewStore(warmLines)
				head.AppendAll(es[:min(len(es), warmLines)])
				if err := writeSynced(c.warm, func(w *bufio.Writer) error { return logmodel.WriteAll(w, head) }); err != nil {
					return err
				}
			}
			for _, e := range es {
				b := int64(e.Time / bucketWidth)
				if b < lastBucket {
					return fmt.Errorf("corpus is not time-ordered at %v: the replay would drop late entries", e.Time.Time())
				}
				if b > lastBucket {
					c.buckets++
					lastBucket = b
				}
			}
			c.entries += len(es)
			if err := logmodel.WriteAll(w, store); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// freshDir leaves dir existing and empty.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}

// writeSynced creates path, lets fill write it through a buffer, and
// flushes, fsyncs and closes it.
func writeSynced(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
