// Prometheus text-format exposition for the metrics registry.
//
// The registry's instruments are keyed by canonical series strings — a
// bare metric name ("dynopt_commits") or a labeled series built with
// Labeled ("dynopt_tier_dispatches{tier=\"full\"}"). This file encodes
// the whole registry in the Prometheus text exposition format (version
// 0.0.4): one # TYPE line per metric family, every series sorted, and
// histograms expanded into cumulative _bucket/_sum/_count series. Output
// is byte-deterministic for a given registry state: families and series
// are emitted in sorted order, so two registries holding the same values
// encode to identical bytes regardless of registration order — the
// property the obs endpoint goldens gate on.
package telemetry

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the content type of the text exposition
// format served to scrapers.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// Labeled builds the canonical series key for name with the given labels:
// name{k1="v1",k2="v2"} with labels sorted by name and values escaped per
// the Prometheus text format. Instruments registered under a Labeled key
// expose as labeled series; a plain name is the label-free series of its
// family. With no labels it returns name unchanged.
func Labeled(name string, labels ...Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes a label value per the text exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// splitSeries splits a canonical series key into its family name and the
// label block ("" when unlabeled, otherwise `k="v",...` without braces).
func splitSeries(key string) (family, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], strings.TrimSuffix(key[i+1:], "}")
	}
	return key, ""
}

// joinLabels merges an instrument's own label block with extra labels
// (both already canonical), producing the final `{...}` block or "".
// Extra labels come first so a tenant/run scope reads leftmost.
func joinLabels(own string, extra string) string {
	switch {
	case own == "" && extra == "":
		return ""
	case own == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + own + "}"
	default:
		return "{" + extra + "," + own + "}"
	}
}

// canonLabels renders extra labels into one canonical comma-joined block.
func canonLabels(extra []Label) string {
	if len(extra) == 0 {
		return ""
	}
	ls := append([]Label(nil), extra...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// promWriter accumulates exposition lines with a sticky error, so the
// encoding logic stays free of per-line error plumbing.
type promWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (p *promWriter) line(parts ...string) {
	if p.err != nil {
		return
	}
	p.buf = p.buf[:0]
	for _, s := range parts {
		p.buf = append(p.buf, s...)
	}
	p.buf = append(p.buf, '\n')
	_, p.err = p.w.Write(p.buf)
}

// histoSeries is one histogram series prepared for exposition.
type histoSeries struct {
	labels string // own label block (no braces)
	h      *Histogram
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format. extra labels are attached to every series — the obs endpoint
// uses them to scope one tenant's registry with tenant/bench labels in
// the fleet-wide /metrics page. Output is deterministic: families sorted
// by name, series sorted by label block. Safe on a nil registry (writes
// nothing).
func (r *Registry) WritePrometheus(w io.Writer, extra ...Label) error {
	if r == nil {
		return nil
	}
	extraBlock := canonLabels(extra)

	type series struct {
		labels string
		value  int64
	}
	counters := make(map[string][]series)
	gauges := make(map[string][]series)
	histos := make(map[string][]histoSeries)

	r.mu.Lock()
	for key, c := range r.counters {
		fam, lb := splitSeries(key)
		counters[fam] = append(counters[fam], series{lb, c.Value()})
	}
	for key, g := range r.gauges {
		fam, lb := splitSeries(key)
		gauges[fam] = append(gauges[fam], series{lb, g.Value()})
	}
	for key, h := range r.histograms {
		fam, lb := splitSeries(key)
		histos[fam] = append(histos[fam], histoSeries{lb, h})
	}
	r.mu.Unlock()

	pw := &promWriter{w: w}
	emitScalar := func(byFam map[string][]series, typ string) {
		fams := make([]string, 0, len(byFam))
		for fam := range byFam {
			fams = append(fams, fam)
		}
		sort.Strings(fams)
		for _, fam := range fams {
			ss := byFam[fam]
			sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
			pw.line("# TYPE ", fam, " ", typ)
			for _, s := range ss {
				pw.line(fam, joinLabels(s.labels, extraBlock), " ",
					strconv.FormatInt(s.value, 10))
			}
		}
	}
	emitScalar(counters, "counter")
	emitScalar(gauges, "gauge")

	fams := make([]string, 0, len(histos))
	for fam := range histos {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		hs := histos[fam]
		sort.Slice(hs, func(i, j int) bool { return hs[i].labels < hs[j].labels })
		pw.line("# TYPE ", fam, " histogram")
		for _, s := range hs {
			h := s.h
			var cum int64
			for i := range h.counts {
				cum += h.counts[i].Load()
				le := "+Inf"
				if i < len(h.bounds) {
					le = strconv.FormatInt(h.bounds[i], 10)
				}
				leLabel := `le="` + le + `"`
				own := s.labels
				if own == "" {
					own = leLabel
				} else {
					own = own + "," + leLabel
				}
				pw.line(fam, "_bucket", joinLabels(own, extraBlock), " ",
					strconv.FormatInt(cum, 10))
			}
			pw.line(fam, "_sum", joinLabels(s.labels, extraBlock), " ",
				strconv.FormatInt(h.Sum(), 10))
			pw.line(fam, "_count", joinLabels(s.labels, extraBlock), " ",
				strconv.FormatInt(h.Count(), 10))
		}
	}
	return pw.err
}
