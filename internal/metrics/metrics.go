// Package metrics collects experiment measurements and renders them the way
// the paper reports them: cumulative distribution functions (Figures 6 and
// 7) and mean-vs-parameter series (Figure 8).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist accumulates scalar samples and answers distribution queries.
// The zero value is an empty distribution ready for use.
type Dist struct {
	values []float64
	sorted bool
}

// Add records one sample.
func (d *Dist) Add(v float64) {
	d.values = append(d.values, v)
	d.sorted = false
}

// AddAll records a batch of samples.
func (d *Dist) AddAll(vs []float64) {
	d.values = append(d.values, vs...)
	d.sorted = false
}

// N reports the number of samples.
func (d *Dist) N() int { return len(d.values) }

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.values)
		d.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 for an empty distribution.
func (d *Dist) Mean() float64 {
	if len(d.values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d.values {
		sum += v
	}
	return sum / float64(len(d.values))
}

// Min returns the smallest sample, or 0 when empty.
func (d *Dist) Min() float64 {
	if len(d.values) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.values[0]
}

// Max returns the largest sample, or 0 when empty.
func (d *Dist) Max() float64 {
	if len(d.values) == 0 {
		return 0
	}
	d.ensureSorted()
	return d.values[len(d.values)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func (d *Dist) Percentile(p float64) float64 {
	n := len(d.values)
	if n == 0 {
		return 0
	}
	d.ensureSorted()
	if p <= 0 {
		return d.values[0]
	}
	if p >= 100 {
		return d.values[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.values[lo]
	}
	frac := rank - float64(lo)
	return d.values[lo]*(1-frac) + d.values[hi]*frac
}

// Median is Percentile(50).
func (d *Dist) Median() float64 { return d.Percentile(50) }

// FractionBelow reports the fraction of samples <= x, i.e. the empirical
// CDF evaluated at x.
func (d *Dist) FractionBelow(x float64) float64 {
	if len(d.values) == 0 {
		return 0
	}
	d.ensureSorted()
	idx := sort.SearchFloat64s(d.values, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(d.values))
}

// Point is one (x, y) coordinate of a rendered curve.
type Point struct {
	X float64
	Y float64
}

// CDF returns the empirical CDF sampled at up to points positions spanning
// [min, max]. It always includes the extremes.
func (d *Dist) CDF(points int) []Point {
	if len(d.values) == 0 || points < 2 {
		return nil
	}
	d.ensureSorted()
	lo, hi := d.values[0], d.values[len(d.values)-1]
	out := make([]Point, 0, points)
	for i := 0; i < points; i++ {
		x := lo + (hi-lo)*float64(i)/float64(points-1)
		out = append(out, Point{X: x, Y: d.FractionBelow(x)})
	}
	return out
}

// Series is a named list of points, one line on a figure.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point to the series.
func (s *Series) Append(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure is a set of series sharing axes; one Figure corresponds to one
// paper figure (or one sub-figure).
type Figure struct {
	ID     string // e.g. "fig6a"
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries creates, registers and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// SeriesByName returns the series with the given name, or nil.
//
// Test support: the root, experiments and metrics tests read figures by it.
func (f *Figure) SeriesByName(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// sharedX reports whether every series uses the same x grid, in which case
// renderings collapse the x columns into one.
func (f *Figure) sharedX() bool {
	if len(f.Series) < 2 {
		return true
	}
	first := f.Series[0].Points
	for _, s := range f.Series[1:] {
		if len(s.Points) != len(first) {
			return false
		}
		for i, p := range s.Points {
			if p.X != first[i].X {
				return false
			}
		}
	}
	return true
}

// CSV renders the figure as comma-separated rows. Series sharing one x
// grid collapse to "x,name1,name2,..."; otherwise each series contributes
// its own (x, y) column pair (CDF curves span different x ranges).
func (f *Figure) CSV() string {
	var b strings.Builder
	shared := f.sharedX()
	if shared {
		b.WriteString("x")
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%s", s.Name)
		}
	} else {
		for i, s := range f.Series {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s_x,%s", s.Name, s.Name)
		}
	}
	b.WriteByte('\n')
	rows := 0
	for _, s := range f.Series {
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	for i := 0; i < rows; i++ {
		var cells []string
		if shared {
			if i < len(f.Series[0].Points) {
				cells = append(cells, fmt.Sprintf("%g", f.Series[0].Points[i].X))
			} else {
				cells = append(cells, "")
			}
		}
		for _, s := range f.Series {
			if i >= len(s.Points) {
				if !shared {
					cells = append(cells, "")
				}
				cells = append(cells, "")
				continue
			}
			if !shared {
				cells = append(cells, fmt.Sprintf("%g", s.Points[i].X))
			}
			cells = append(cells, fmt.Sprintf("%g", s.Points[i].Y))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders the figure as an aligned text table for terminal output,
// with one x column when the series share a grid and per-series (x, y)
// pairs otherwise.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	shared := f.sharedX()
	if shared {
		fmt.Fprintf(&b, "%-14s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "  %16s", s.Name)
		}
	} else {
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%-14s  %16s  ", f.XLabel, s.Name)
		}
	}
	b.WriteByte('\n')
	rows := 0
	for _, s := range f.Series {
		if len(s.Points) > rows {
			rows = len(s.Points)
		}
	}
	for i := 0; i < rows; i++ {
		if shared {
			x := math.NaN()
			if i < len(f.Series[0].Points) {
				x = f.Series[0].Points[i].X
			}
			fmt.Fprintf(&b, "%-14.6g", x)
			for _, s := range f.Series {
				if i < len(s.Points) {
					fmt.Fprintf(&b, "  %16.6g", s.Points[i].Y)
				} else {
					fmt.Fprintf(&b, "  %16s", "")
				}
			}
		} else {
			for _, s := range f.Series {
				if i < len(s.Points) {
					fmt.Fprintf(&b, "%-14.6g  %16.6g  ", s.Points[i].X, s.Points[i].Y)
				} else {
					fmt.Fprintf(&b, "%-14s  %16s  ", "", "")
				}
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
