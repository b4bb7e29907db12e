package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Format renders a parsed query back to SPARQL text. The output is
// canonical — prefixes sorted, one prologue line per prefix, triple
// patterns grouped per subject with ';' lists, expressions fully
// parenthesised — and reparses to a structurally identical query (the
// round-trip property the formatter tests enforce).
func Format(q *Query) string {
	var b strings.Builder
	labels := make([]string, 0, len(q.Prefixes))
	for l := range q.Prefixes {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(&b, "PREFIX %s: <%s>\n", l, q.Prefixes[l])
	}
	formatSelect(&b, q.Select, q.Prefixes, 0)
	return b.String()
}

func formatSelect(b *strings.Builder, sel *SelectQuery, prefixes map[string]string, depth int) {
	ind := strings.Repeat("  ", depth)
	b.WriteString(ind)
	b.WriteString("SELECT")
	for _, pi := range sel.Projection {
		b.WriteByte(' ')
		switch {
		case pi.Agg != nil:
			d := ""
			if pi.Agg.Distinct {
				d = "DISTINCT "
			}
			fmt.Fprintf(b, "(%s(%s?%s) AS ?%s)", pi.Agg.Func, d, pi.Agg.Var, pi.Var)
		case pi.Expr != nil:
			fmt.Fprintf(b, "(%s AS ?%s)", formatExpr(pi.Expr), pi.Var)
		default:
			fmt.Fprintf(b, "?%s", pi.Var)
		}
	}
	b.WriteString(" {\n")
	formatPattern(b, sel.Pattern, prefixes, depth+1)
	b.WriteString(ind)
	b.WriteString("}")
	if len(sel.GroupBy) > 0 {
		b.WriteString(" GROUP BY")
		for _, g := range sel.GroupBy {
			fmt.Fprintf(b, " ?%s", g)
		}
	}
	for _, h := range sel.Having {
		d := ""
		if h.Agg.Distinct {
			d = "DISTINCT "
		}
		fmt.Fprintf(b, " HAVING (%s(%s?%s) %s %s)", h.Agg.Func, d, h.Agg.Var, h.Op,
			strconv.FormatFloat(h.Value, 'g', -1, 64))
	}
	if len(sel.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range sel.OrderBy {
			if k.Desc {
				fmt.Fprintf(b, " DESC(?%s)", k.Var)
			} else {
				fmt.Fprintf(b, " ASC(?%s)", k.Var)
			}
		}
	}
	if sel.Limit > 0 {
		fmt.Fprintf(b, " LIMIT %d", sel.Limit)
	}
}

func formatPattern(b *strings.Builder, g *GroupGraphPattern, prefixes map[string]string, depth int) {
	ind := strings.Repeat("  ", depth)
	// Triple patterns, grouped into ';' runs per consecutive subject.
	for i := 0; i < len(g.Triples); {
		j := i
		subj := g.Triples[i].S
		for j < len(g.Triples) && g.Triples[j].S == subj {
			j++
		}
		b.WriteString(ind)
		b.WriteString(formatNode(subj, prefixes))
		for k := i; k < j; k++ {
			if k > i {
				b.WriteString(" ;\n" + ind + strings.Repeat(" ", len(formatNode(subj, prefixes))))
			}
			b.WriteByte(' ')
			b.WriteString(formatNode(g.Triples[k].P, prefixes))
			b.WriteByte(' ')
			b.WriteString(formatNode(g.Triples[k].O, prefixes))
		}
		b.WriteString(" .\n")
		i = j
	}
	for _, block := range g.Optionals {
		b.WriteString(ind)
		b.WriteString("OPTIONAL {\n")
		formatPattern(b, &GroupGraphPattern{Triples: block}, prefixes, depth+1)
		b.WriteString(ind)
		b.WriteString("}\n")
	}
	for _, f := range g.Filters {
		b.WriteString(ind)
		if f.Kind == FilterRegex {
			fmt.Fprintf(b, "FILTER regex(?%s, %s", f.Var, quote(f.Pattern))
			if f.Flags != "" {
				fmt.Fprintf(b, ", %s", quote(f.Flags))
			}
			b.WriteString(")\n")
			continue
		}
		comparand := quote(f.Value)
		if f.IsNumeric {
			comparand = f.Value
		}
		fmt.Fprintf(b, "FILTER (?%s %s %s)\n", f.Var, f.Op, comparand)
	}
	for _, sub := range g.SubSelects {
		b.WriteString(ind)
		b.WriteString("{\n")
		formatSelect(b, sub, prefixes, depth+1)
		b.WriteString("\n" + ind + "}\n")
	}
}

func formatNode(n Node, prefixes map[string]string) string {
	if n.IsVar {
		return "?" + n.Var
	}
	t := n.Term
	if t.IsIRI() {
		if t.Value == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
			return "a"
		}
		if pn, ok := compact(t.Value, prefixes); ok {
			return pn
		}
		return "<" + t.Value + ">"
	}
	return quote(t.Value)
}

// compact abbreviates an IRI under the longest matching declared prefix,
// when the remainder is a plain local name.
func compact(iri string, prefixes map[string]string) (string, bool) {
	best, bestNS := "", ""
	for label, ns := range prefixes {
		if ns != "" && strings.HasPrefix(iri, ns) && len(ns) > len(bestNS) {
			best, bestNS = label, ns
		}
	}
	if bestNS == "" {
		return "", false
	}
	local := iri[len(bestNS):]
	if local == "" {
		return "", false
	}
	for i := 0; i < len(local); i++ {
		c := local[i]
		if !(c == '_' || c == '-' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
			return "", false
		}
	}
	if local[0] >= '0' && local[0] <= '9' || local[0] == '-' {
		return "", false
	}
	return best + ":" + local, true
}

func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	// Byte-wise, so a value that is not valid UTF-8 survives unchanged.
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func formatExpr(e *Expr) string {
	switch e.Kind {
	case ExprVar:
		return "?" + e.Var
	case ExprNum:
		return strconv.FormatFloat(e.Num, 'g', -1, 64)
	case ExprBinary:
		return fmt.Sprintf("(%s %c %s)", formatExpr(e.Left), e.Op, formatExpr(e.Right))
	default:
		return "?"
	}
}
