package mapred

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"rapidanalytics/internal/obs"
	"rapidanalytics/internal/vec"
)

// Map-side spill: when ClusterConfig.SpillThresholdBytes is set, a map
// task whose arena holds that many bytes of shuffle output combines, sorts
// and writes each partition's run to a spill run in the cluster FS
// (blockstore segments on the disk backend), exactly as Hadoop spills its
// map output buffer, and continues with a fresh arena. The shuffle reads
// each spill run back into the partition's own arena, and the partition's
// runs — spilled or not — go through the one stable merge (shuffle.go), so
// reduce input (and therefore job output) is byte-identical to the
// unspilled execution. With a combiner, combining happens per run (again
// as Hadoop does), so shuffled records/bytes may differ from the unspilled
// run while the reduced output stays identical.

// spillRef identifies one sorted spill run materialised in the cluster FS.
type spillRef struct {
	file    string
	records int64
	bytes   int64 // logical kv bytes (key + value lengths)
}

// spillRunName places task t's run r for partition p under a job-unique
// prefix, so concurrent queries on one cluster never collide. It runs once
// per spilled partition on the map task's record loop, so the name builds
// into one pre-sized buffer instead of going through fmt.
func spillRunName(output string, task, run, part int) string {
	buf := make([]byte, 0, len("_spill/")+len(output)+len("/t0000-r0000-p0000")+3*binary.MaxVarintLen16)
	buf = append(buf, "_spill/"...)
	buf = append(buf, output...)
	buf = append(buf, "/t"...)
	buf = appendPadded(buf, task)
	buf = append(buf, "-r"...)
	buf = appendPadded(buf, run)
	buf = append(buf, "-p"...)
	buf = appendPadded(buf, part)
	// the name escapes into spillRef and FS.Create; one string allocation is the floor
	return string(buf)
}

// appendPadded appends n zero-padded to at least four digits (the %04d the
// name format always used; wider values print unpadded).
func appendPadded(buf []byte, n int) []byte {
	for lim := 1000; lim > 1 && n < lim; lim /= 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(n), 10)
}

// ErrSpillCleanup marks a job whose spill runs could not be deleted after
// the run — leaked backend storage, surfaced on the job's error path.
// Test with errors.Is.
var ErrSpillCleanup = errors.New("mapred: spill cleanup failed")

// cleanupSpills removes every spill run a job left behind, returning the
// first delete failure (with the file named) after attempting the rest.
func (c *Cluster) cleanupSpills(output string) error {
	var first error
	for _, name := range c.FS.List("_spill/" + output + "/") {
		if err := c.FS.Delete(name); err != nil && first == nil {
			first = fmt.Errorf("deleting %s: %w", name, err)
		}
	}
	return first
}

// spillMaxBuffered tracks the high-water mark of a map task's arena bytes
// (its shuffle output since the last spill) observed at record boundaries
// while spilling is enabled. It exists
// so tests can assert the spill path bounds resident shuffle memory; it is
// never read by execution.
var spillMaxBuffered atomic.Int64

// noteSpillHighWater raises the recorded high-water mark to n.
func noteSpillHighWater(n int64) {
	for {
		cur := spillMaxBuffered.Load()
		if n <= cur || spillMaxBuffered.CompareAndSwap(cur, n) {
			return
		}
	}
}

// writeSpillRun materialises one sorted run of a's entries, attaching a
// spill-write io span under the task span when tracing. A record is
// uvarint(len(key)) || key || value; records are batched, so the run's
// bytes move to the FS without an allocation per record.
func (c *Cluster) writeSpillRun(name string, a *arena, run []entry, tspan *obs.Span, check func() error) (spillRef, error) {
	w, err := c.FS.Create(name, 1)
	if err != nil {
		return spillRef{}, err
	}
	var sspan *obs.Span
	if tspan != nil {
		sspan = tspan.StartChild(obs.KindIO, "spill-write")
	}
	w.SetSpan(sspan)
	ref := spillRef{file: name, records: int64(len(run))}
	werr := func() error {
		bu := vec.NewBuilder(vec.DefaultBatchRows)
		var rec []byte
		for i, e := range run {
			if i%ctxCheckInterval == 0 {
				if err := check(); err != nil {
					return err
				}
			}
			ref.bytes += e.size()
			rec = append(binary.AppendUvarint(rec[:0], uint64(e.klen)), a.pair(e)...)
			if b := bu.Append(rec); b != nil {
				w.WriteBatch(b)
			}
		}
		if b := bu.Flush(); b != nil {
			w.WriteBatch(b)
		}
		return nil
	}()
	sspan.End()
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return spillRef{}, werr
	}
	return ref, nil
}

// readSpillRun reads a spill run back into a, copying every pair: a
// record on the disk backend is a sub-slice of a read block, and the run's
// file is closed and deleted long before the partition is reduced. The
// file is closed on every path.
func (c *Cluster) readSpillRun(ref spillRef, a *arena, check func() error) ([]entry, error) {
	f, err := c.FS.Open(ref.file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run := make([]entry, 0, ref.records)
	it := f.Records(0)
	for it.Next() {
		if len(run)%ctxCheckInterval == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		rec := it.Record()
		kl, n := binary.Uvarint(rec)
		if n <= 0 || kl > uint64(len(rec)-n) {
			return nil, fmt.Errorf("mapred: corrupt spill record in %s", ref.file)
		}
		e, dst := a.reserve(len(rec) - n)
		copy(dst, rec[n:])
		e.klen, e.vlen = uint32(kl), uint32(len(rec)-n-int(kl))
		e.prefix = keyPrefix(a.key(e))
		run = append(run, e)
	}
	return run, it.Err()
}
