package dfs

import (
	"encoding/binary"
	"fmt"
	"math"

	"rapidanalytics/internal/blockstore"
	"rapidanalytics/internal/vec"
)

// diskBackend stores every file as one blockstore segment in a sharded
// directory tree. The file's compression ratio rides in the segment's
// footer metadata, so the compression accounting (stored = logical ×
// ratio) is byte-identical to the in-memory backend.
type diskBackend struct {
	store *blockstore.Store
}

// NewDiskBackend opens (creating if needed) a disk backend rooted at dir
// with the given shard count (<= 0 selects blockstore.DefaultShards).
func NewDiskBackend(dir string, shards int) (Backend, error) {
	s, err := blockstore.Open(dir, shards)
	if err != nil {
		return nil, err
	}
	return &diskBackend{store: s}, nil
}

// encodeRatio packs a compression ratio into segment footer metadata.
func encodeRatio(ratio float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(ratio))
	return b[:]
}

// decodeRatio unpacks a ratio, defaulting to 1 for foreign or missing
// metadata so accounting stays sane on hand-placed segments.
func decodeRatio(meta []byte) float64 {
	if len(meta) != 8 {
		return 1
	}
	r := math.Float64frombits(binary.LittleEndian.Uint64(meta))
	if r <= 0 || r > 1 || math.IsNaN(r) {
		return 1
	}
	return r
}

func (b *diskBackend) Create(name string, ratio float64) (FileWriter, error) {
	sw, err := b.store.Create(name)
	if err != nil {
		return nil, err
	}
	sw.SetMeta(encodeRatio(ratio))
	return &diskFileWriter{sw: sw}, nil
}

// diskFileWriter appends each batch's rows to a segment writer; Close
// commits the segment atomically.
type diskFileWriter struct {
	sw *blockstore.SegmentWriter
}

func (w *diskFileWriter) AppendBatch(b *vec.Batch) error {
	for r := range b.Rows() {
		w.sw.Append(b.Record(r))
	}
	return nil
}

func (w *diskFileWriter) Close() error { return w.sw.Close() }

func (b *diskBackend) Open(name string) (*File, error) {
	seg, err := b.store.Open(name)
	if err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	return &File{
		name:  name,
		nrec:  int(seg.Records()),
		bytes: seg.Bytes(),
		ratio: decodeRatio(seg.Meta()),
		seg:   seg,
	}, nil
}

func (b *diskBackend) Exists(name string) bool { return b.store.Exists(name) }

func (b *diskBackend) Delete(name string) error { return b.store.Delete(name) }

func (b *diskBackend) List(prefix string) []string { return b.store.List(prefix) }
