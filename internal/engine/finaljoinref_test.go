package engine

import (
	"slices"
	"strconv"
	"testing"

	"rapidanalytics/internal/codec"
)

// refSideIndex is the final join's index before sideIndex, kept as the
// reference of FuzzFinalJoinIndexMatchesReference: one slice of rows per
// distinct key, in record order, keyed as extend probes.
func refSideIndex(fields codec.Tuple, ends []int, pos []int) map[string][]codec.Tuple {
	idx := map[string][]codec.Tuple{}
	for _, r := range splitRows(fields, ends) {
		var k []byte
		for i, p := range pos {
			if i > 0 {
				k = append(k, 0x1f)
			}
			if p >= 0 {
				k = append(k, r[p]...)
			}
		}
		idx[string(k)] = append(idx[string(k)], r)
	}
	return idx
}

// decodeSides turns fuzz bytes into two broadcast sides: per side a row
// width of 1 to 3, join-column positions (one or two, -1 for a column the
// side lacks) and rows whose fields come from a small set, the empty field
// and the key separator included, so that keys repeat.
func decodeSides(data []byte) (fields [2]codec.Tuple, ends [2][]int, pos [2][]int) {
	vals := []string{"", "a", "b", "ab", "\x1f", "Ig1", "Ig12", "7"}
	for s := range 2 {
		if len(data) < 2 {
			return
		}
		w := 1 + int(data[0]%3)
		pos[s] = []int{int(data[1]%4) - 1}
		if data[1]&4 != 0 {
			pos[s] = append(pos[s], int(data[1]>>3%4)-1)
		}
		for i := range pos[s] {
			pos[s][i] = min(pos[s][i], w-1)
		}
		n := min(len(data)-2, int(data[0]>>2)*w)
		n -= n % w
		for i, b := range data[2 : 2+n] {
			fields[s] = append(fields[s], vals[int(b)%len(vals)])
			if (i+1)%w == 0 {
				ends[s] = append(ends[s], len(fields[s]))
			}
		}
		data = data[2+n:]
	}
	return
}

// Two sides indexed one after the other into one mapper's key arena must
// chain every key's rows in record order, as the reference's slices hold
// them, and find no row for a key no row holds.
func FuzzFinalJoinIndexMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x29, 0x0d, 1, 2, 1, 3, 1, 2, 5, 6, 5, 0, 4, 4, 0x20, 0x01, 1, 1, 2, 2, 1, 7, 7})
	f.Add([]byte{0xfe, 0x3f, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, ends, pos := decodeSides(data)
		m := &finalJoinMapper{}
		var got [2]sideIndex
		for s := range 2 {
			got[s] = m.indexSide(fields[s], ends[s], pos[s])
		}
		for s := range 2 {
			want := refSideIndex(fields[s], ends[s], pos[s])
			if len(got[s].group) != len(want) {
				t.Fatalf("side %d: %d keys, reference %d", s, len(got[s].group), len(want))
			}
			for k, rows := range want {
				var chain []codec.Tuple
				for j := got[s].first([]byte(k)); j >= 0; j = got[s].next[j] {
					chain = append(chain, got[s].row(j))
				}
				if !slices.EqualFunc(chain, rows, func(x, y codec.Tuple) bool { return slices.Equal(x, y) }) {
					t.Fatalf("side %d key %q: rows %q, reference %q", s, k, chain, rows)
				}
			}
			if j := got[s].first([]byte("absent" + strconv.Itoa(s))); j != -1 {
				t.Fatalf("side %d: an absent key finds row %d", s, j)
			}
		}
	})
}
