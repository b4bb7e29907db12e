// Package store implements the two physical RDF layouts the paper's
// systems consume:
//
//   - Vertical partitioning (VP, Abadi et al.) for the Hive engines: one
//     two-column (subject, object) table per property, with rdf:type
//     triples further partitioned into one subject-list table per type
//     object. Tables are stored ORC-style with aggressive compression.
//   - A subject-triplegroup store for the NTGA engines: triples grouped by
//     subject, partitioned into files by property equivalence class (the
//     set of properties the subject has), so graph-pattern inputs can be
//     pruned to the equivalence classes that can possibly match.
//
// Both builders materialise into the cluster's DFS so that engine input
// scans are metered.
package store

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"rapidanalytics/internal/algebra"
	"rapidanalytics/internal/codec"
	"rapidanalytics/internal/dfs"
	"rapidanalytics/internal/ntga"
	"rapidanalytics/internal/rdf"
)

// ORCCompressionRatio models the "80–96% reduction in data size" the paper
// reports for Hive's ORC tables.
const ORCCompressionRatio = 0.12

// VPStore is the metastore for a vertically partitioned dataset.
type VPStore struct {
	// Prefix is the DFS path prefix of all table files.
	Prefix string
	// Tables maps property IRI to the (subject, object) table file.
	Tables map[string]string
	// TypeTables maps a type object's Term.Key to the subject-list table.
	TypeTables map[string]string
	// TriplesTable is the full (subject, property, object) table backing
	// unbound-property patterns — the one query shape vertical partitioning
	// cannot route to a property table ([32]).
	TriplesTable string
	// Rows records each table file's row count, for map-join planning.
	Rows map[string]int64
	// EmptySubjects and EmptyPairs are a one-column and a two-column table
	// without rows, written at load: what TableFor resolves a type or
	// property absent from the data to.
	EmptySubjects, EmptyPairs string
}

// TableFor resolves the table file for a property reference: the
// type-object partition for rdf:type references, the property table
// otherwise. The second result reports whether the reference resolves to a
// dedicated type partition (whose rows are 1-column subject lists). A type
// or property absent from the data resolves to an empty table:
// EmptySubjects for a type or a constant object, EmptyPairs otherwise.
func (s *VPStore) TableFor(ref algebra.PropRef) (file string, isTypePartition bool) {
	if ref.Prop == rdf.RDFType && ref.HasConstObj() {
		if f, ok := s.TypeTables[ref.Obj.Key()]; ok {
			return f, true
		}
		return s.EmptySubjects, true
	}
	if f, ok := s.Tables[ref.Prop]; ok {
		return f, false
	}
	if ref.HasConstObj() {
		return s.EmptySubjects, false
	}
	return s.EmptyPairs, false
}

// BuildVP interns g into d and writes its VP tables (WriteVP).
func BuildVP(fs *dfs.FS, g *rdf.Graph, prefix string, d *rdf.Dict) (*VPStore, error) {
	return WriteVP(fs, rdf.Intern(g, d), prefix)
}

// WriteVP vertically partitions the graph into fs under prefix. Rows are
// compact ID-tuples of g.Dict (codec.DecodeIDTuple), in statement order.
func WriteVP(fs *dfs.FS, g *rdf.IDGraph, prefix string) (*VPStore, error) {
	s := &VPStore{
		Prefix:        prefix,
		Tables:        map[string]string{},
		TypeTables:    map[string]string{},
		Rows:          map[string]int64{},
		TriplesTable:  prefix + "/triples",
		EmptySubjects: prefix + "/empty_subjects",
		EmptyPairs:    prefix + "/empty_pairs",
	}
	writers := map[string]*dfs.Writer{}
	create := func(name string) (*dfs.Writer, error) {
		w, err := fs.Create(name, ORCCompressionRatio)
		if err != nil {
			return nil, closeWriters(writers, err)
		}
		writers[name] = w
		return w, nil
	}
	for _, name := range []string{s.EmptySubjects, s.EmptyPairs} {
		if _, err := create(name); err != nil {
			return nil, err
		}
	}
	triples, err := create(s.TriplesTable)
	if err != nil {
		return nil, err
	}
	// A table per property, and per object of rdf:type: keyed by the
	// property ID and the object ID or 0.
	names := map[[2]uint64]string{}
	typeID, _ := g.Dict.Lookup("I" + rdf.RDFType)
	ids := func(id uint64) string { str, _ := g.Dict.IDString(id); return str }
	var buf []byte // every row encodes here; the writers copy it
	for _, t := range g.Triples {
		sub, obj := ids(t.S), ids(t.O)
		buf = codec.Tuple{sub, ids(t.P), obj}.AppendEncodeIDs(buf[:0])
		triples.Write(buf)
		key, row := [2]uint64{t.P, 0}, codec.Tuple{sub, obj}
		if t.P == typeID {
			key, row = [2]uint64{t.P, t.O}, row[:1]
		}
		name, ok := names[key]
		if !ok {
			if t.P == typeID {
				objKey, _ := g.Dict.Key(t.O)
				name = fmt.Sprintf("%s/type_%s", prefix, sanitize(objKey))
				s.TypeTables[objKey] = name
			} else {
				prop, _ := g.Dict.Key(t.P)
				name = fmt.Sprintf("%s/vp_%s", prefix, sanitize(rdf.KeyLex(prop)))
				s.Tables[rdf.KeyLex(prop)] = name
			}
			if _, err := create(name); err != nil {
				return nil, err
			}
			names[key] = name
		}
		buf = row.AppendEncodeIDs(buf[:0])
		writers[name].Write(buf)
		s.Rows[name]++
		s.Rows[s.TriplesTable]++
	}
	if err := closeWriters(writers, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// closeWriters commits every table writer (in name order, for deterministic
// error selection) and returns the first error among werr and the Closes.
func closeWriters(writers map[string]*dfs.Writer, werr error) error {
	names := make([]string, 0, len(writers))
	for n := range writers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := writers[n].Close(); werr == nil {
			werr = err
		}
	}
	return werr
}

func sanitize(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	short := s
	if i := strings.LastIndexAny(s, "/#"); i >= 0 && i+1 < len(s) {
		short = s[i+1:]
	}
	var b strings.Builder
	for _, r := range short {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
			b.WriteRune(r)
		}
	}
	return fmt.Sprintf("%s_%x", b.String(), h.Sum64())
}

// TGFile describes one equivalence-class file of the triplegroup store.
type TGFile struct {
	// Name is the file's DFS path.
	Name string
	// Props is the equivalence class: the rdf.ECKeys its subjects carry.
	Props map[string]bool
}

// TGStore is the metastore for a subject-triplegroup dataset.
type TGStore struct {
	// Prefix is the DFS path prefix of all equivalence-class files.
	Prefix string
	// Files are the equivalence-class files, sorted by name.
	Files []TGFile
}

// BuildTG interns g into d and writes its triplegroups (WriteTG).
func BuildTG(fs *dfs.FS, g *rdf.Graph, prefix string, d *rdf.Dict) (*TGStore, error) {
	return WriteTG(fs, rdf.Intern(g, d), prefix)
}

// WriteTG materialises the graph's subject triplegroups into fs under
// prefix, in g.Subjects order, one file per property equivalence class: the
// rdf.ECKeys a subject's statements carry. Every field of a stored
// triplegroup is an ID-string of g.Dict (ntga.DecodeTripleGroupIDs); the
// equivalence-class metadata stays lexical, so input pruning needs no
// dictionary.
func WriteTG(fs *dfs.FS, g *rdf.IDGraph, prefix string) (*TGStore, error) {
	s := &TGStore{Prefix: prefix}
	writers := map[string]*dfs.Writer{}
	byHash := map[uint64]*dfs.Writer{}
	ids := func(id uint64) string { str, _ := g.Dict.IDString(id); return str }
	var (
		keys   []string
		counts []int64
		tg     ntga.TripleGroup
		buf    []byte // every triplegroup encodes here; the writers copy it
	)
	for _, sub := range g.Subjects {
		keys, counts = g.ECKeys(sub, keys, counts)
		h := hashKeys(keys)
		w := byHash[h]
		if w == nil {
			name := fmt.Sprintf("%s/ec_%x", prefix, h)
			var err error
			if w, err = fs.Create(name, 1); err != nil {
				return nil, closeWriters(writers, err)
			}
			writers[name], byHash[h] = w, w
			props := make(map[string]bool, len(keys))
			for _, k := range keys {
				props[k] = true
			}
			s.Files = append(s.Files, TGFile{Name: name, Props: props})
		}
		tg.Subject, tg.Triples = ids(sub[0].S), tg.Triples[:0]
		for _, t := range sub {
			tg.Triples = append(tg.Triples, ntga.PO{Prop: ids(t.P), Obj: ids(t.O)})
		}
		buf = tg.AppendEncodeIDs(buf[:0])
		w.Write(buf)
	}
	if err := closeWriters(writers, nil); err != nil {
		return nil, err
	}
	sort.Slice(s.Files, func(i, j int) bool { return s.Files[i].Name < s.Files[j].Name })
	return s, nil
}

// hashKeys identifies an equivalence class by its sorted keys.
func hashKeys(keys []string) uint64 {
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// AllFiles returns every equivalence-class file (the no-pruning baseline).
func (s *TGStore) AllFiles() []string {
	names := make([]string, len(s.Files))
	for i, f := range s.Files {
		names[i] = f.Name
	}
	return names
}

// FilesFor returns the equivalence-class files whose subjects can possibly
// match a star with the given primary property references: the class must
// contain every required key. This is the input-pruning the paper's
// pre-processing enables ("rdf:type triples with ProductType objects were
// grouped based on prefixes").
func (s *TGStore) FilesFor(prim []algebra.PropRef) []string {
	var names []string
	for _, f := range s.Files {
		ok := true
		for _, ref := range prim {
			if !f.Props[algebra.ECKeyForRef(ref)] {
				ok = false
				break
			}
		}
		if ok {
			names = append(names, f.Name)
		}
	}
	return names
}
