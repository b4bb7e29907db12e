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
}

// TableFor resolves the table file for a property reference: the
// type-object partition for rdf:type references, the property table
// otherwise. The second result reports whether the reference resolves to a
// dedicated type partition (whose rows are 1-column subject lists) and the
// third whether the table exists.
func (s *VPStore) TableFor(ref algebra.PropRef) (file string, isTypePartition, ok bool) {
	if ref.Prop == rdf.RDFType && ref.HasConstObj() {
		f, ok := s.TypeTables[ref.Obj.Key()]
		return f, true, ok
	}
	f, ok := s.Tables[ref.Prop]
	return f, false, ok
}

// BuildVP vertically partitions the graph into fs under prefix. Every term
// is registered in d (in triple order, so IDs are deterministic for a given
// graph) and rows are compact ID-tuples (codec.DecodeIDTuple).
func BuildVP(fs *dfs.FS, g *rdf.Graph, prefix string, d *rdf.Dict) (*VPStore, error) {
	s := &VPStore{
		Prefix:     prefix,
		Tables:     map[string]string{},
		TypeTables: map[string]string{},
		Rows:       map[string]int64{},
	}
	writers := map[string]*dfs.Writer{}
	var werr error
	writerFor := func(name string) *dfs.Writer {
		w, ok := writers[name]
		if !ok {
			var err error
			w, err = fs.Create(name, ORCCompressionRatio)
			if err != nil {
				if werr == nil {
					werr = err
				}
				return nil
			}
			writers[name] = w
		}
		return w
	}
	encRow := func(fields ...string) []byte {
		t := codec.Tuple(fields)
		for i, f := range t {
			t[i] = d.AddString(f)
		}
		return t.EncodeIDs()
	}
	s.TriplesTable = prefix + "/triples"
	triples := writerFor(s.TriplesTable)
	for _, t := range g.Triples {
		if werr != nil {
			break
		}
		triples.WriteOwned(encRow(t.Subject.Key(), "I"+t.Property.Value, t.Object.Key()))
		s.Rows[s.TriplesTable]++
		if t.Property.Value == rdf.RDFType {
			name, ok := s.TypeTables[t.Object.Key()]
			if !ok {
				name = fmt.Sprintf("%s/type_%s", prefix, sanitize(t.Object.Key()))
				s.TypeTables[t.Object.Key()] = name
			}
			if w := writerFor(name); w != nil {
				w.WriteOwned(encRow(t.Subject.Key()))
				s.Rows[name]++
			}
			continue
		}
		name, ok := s.Tables[t.Property.Value]
		if !ok {
			name = fmt.Sprintf("%s/vp_%s", prefix, sanitize(t.Property.Value))
			s.Tables[t.Property.Value] = name
		}
		if w := writerFor(name); w != nil {
			w.WriteOwned(encRow(t.Subject.Key(), t.Object.Key()))
			s.Rows[name]++
		}
	}
	if err := closeWriters(writers, werr); err != nil {
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
	Name string
	// Props is the equivalence class: the property IRIs the file's
	// subjects have, with rdf:type entries refined to "type=object" keys.
	Props map[string]bool
}

// TGStore is the metastore for a subject-triplegroup dataset.
type TGStore struct {
	Prefix string
	Files  []TGFile
}

// ecKey returns the equivalence-class membership key of a property
// reference, used both when building the store and when pruning inputs.
func ecKey(prop, objKey string) string {
	if prop == rdf.RDFType {
		return "type=" + objKey
	}
	return prop
}

// ECKeyForRef returns the equivalence-class key a required property
// reference prunes on. Non-type constant-object references (e.g. pub_type
// "News") prune only on the property: values are not part of the schema.
func ECKeyForRef(ref algebra.PropRef) string {
	if ref.Prop == rdf.RDFType && ref.HasConstObj() {
		return ecKey(ref.Prop, ref.Obj.Key())
	}
	return ref.Prop
}

// BuildTG groups the graph's triples by subject and materialises the
// triplegroups into fs under prefix, one file per property equivalence
// class. Every field of a stored triplegroup is an ID-string of d
// (ntga.DecodeTripleGroupIDs), registered on first use; the
// equivalence-class metadata stays lexical, so input pruning needs no
// dictionary.
func BuildTG(fs *dfs.FS, g *rdf.Graph, prefix string, d *rdf.Dict) (*TGStore, error) {
	s := &TGStore{Prefix: prefix}
	tgs := ntga.GroupBySubject(g)
	type ec struct {
		writer *dfs.Writer
		props  map[string]bool
	}
	classes := map[string]*ec{}
	writers := map[string]*dfs.Writer{}
	for i := range tgs {
		tg := &tgs[i]
		props := map[string]bool{}
		for _, po := range tg.Triples {
			props[ecKey(po.Prop, po.Obj)] = true
		}
		keys := make([]string, 0, len(props))
		for k := range props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		id := hashKeys(keys)
		cls, ok := classes[id]
		if !ok {
			name := fmt.Sprintf("%s/ec_%s", prefix, id)
			w, err := fs.Create(name, 1)
			if err != nil {
				return nil, closeWriters(writers, err)
			}
			cls = &ec{writer: w, props: props}
			classes[id] = cls
			writers[name] = w
			s.Files = append(s.Files, TGFile{Name: name, Props: props})
		}
		idtg := tg.Intern(d)
		cls.writer.WriteOwned(idtg.EncodeIDs())
	}
	if err := closeWriters(writers, nil); err != nil {
		return nil, err
	}
	sort.Slice(s.Files, func(i, j int) bool { return s.Files[i].Name < s.Files[j].Name })
	return s, nil
}

func hashKeys(keys []string) string {
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum64())
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
			if !f.Props[ECKeyForRef(ref)] {
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
