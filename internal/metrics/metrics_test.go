package metrics

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyDist(t *testing.T) {
	var d Dist
	if d.N() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty dist should report zeros")
	}
	if d.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if d.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
	if d.Stddev() != 0 {
		t.Fatal("empty stddev should be 0")
	}
}

func TestBasicStats(t *testing.T) {
	var d Dist
	d.AddAll([]float64{4, 1, 3, 2, 5})
	if d.N() != 5 {
		t.Fatalf("N = %d", d.N())
	}
	if d.Mean() != 3 {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", d.Min(), d.Max())
	}
	if d.Median() != 3 {
		t.Fatalf("Median = %v", d.Median())
	}
	want := math.Sqrt(2)
	if math.Abs(d.Stddev()-want) > 1e-12 {
		t.Fatalf("Stddev = %v, want %v", d.Stddev(), want)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var d Dist
	d.AddAll([]float64{0, 10})
	if got := d.Percentile(50); got != 5 {
		t.Fatalf("P50 = %v, want 5", got)
	}
	if got := d.Percentile(0); got != 0 {
		t.Fatalf("P0 = %v", got)
	}
	if got := d.Percentile(100); got != 10 {
		t.Fatalf("P100 = %v", got)
	}
	if got := d.Percentile(-5); got != 0 {
		t.Fatalf("P(-5) = %v", got)
	}
	if got := d.Percentile(120); got != 10 {
		t.Fatalf("P120 = %v", got)
	}
}

func TestFractionBelow(t *testing.T) {
	var d Dist
	d.AddAll([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{9, 1},
	}
	for _, c := range cases {
		if got := d.FractionBelow(c.x); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFEndpoints(t *testing.T) {
	var d Dist
	d.AddAll([]float64{1, 2, 3, 4, 5})
	pts := d.CDF(11)
	if len(pts) != 11 {
		t.Fatalf("CDF points = %d", len(pts))
	}
	if pts[0].X != 1 || pts[len(pts)-1].X != 5 {
		t.Fatalf("CDF x-range [%v, %v]", pts[0].X, pts[len(pts)-1].X)
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("CDF should end at 1, got %v", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF must be non-decreasing")
		}
	}
}

func TestValuesCopy(t *testing.T) {
	var d Dist
	d.AddAll([]float64{3, 1, 2})
	vs := d.Values()
	if vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("Values not sorted: %v", vs)
	}
	vs[0] = 99
	if d.Min() == 99 {
		t.Fatal("Values must return a copy")
	}
}

func TestSummaryContainsFields(t *testing.T) {
	var d Dist
	d.AddAll([]float64{1, 2, 3})
	s := d.Summary("ms")
	for _, want := range []string{"n=3", "p50=", "mean=", "ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestFigureCSVAndTableSharedGrid(t *testing.T) {
	f := &Figure{ID: "fig0", Title: "demo", XLabel: "x", YLabel: "y"}
	a := f.AddSeries("a")
	b := f.AddSeries("b")
	a.Append(1, 10)
	a.Append(2, 20)
	b.Append(1, 11)
	b.Append(2, 21)
	csv := f.CSV()
	if !strings.HasPrefix(csv, "x,a,b\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "1,10,11") || !strings.Contains(csv, "2,20,21") {
		t.Fatalf("csv rows missing: %q", csv)
	}
	tbl := f.Table()
	if !strings.Contains(tbl, "fig0") || !strings.Contains(tbl, "demo") {
		t.Fatalf("table header missing: %q", tbl)
	}
	if f.SeriesByName("a") != a || f.SeriesByName("zzz") != nil {
		t.Fatal("SeriesByName lookup broken")
	}
}

func TestFigureCSVAndTablePerSeriesGrid(t *testing.T) {
	// Series with different x grids (CDF curves) get (x, y) column pairs.
	f := &Figure{ID: "fig1", Title: "cdf", XLabel: "ms", YLabel: "CDF"}
	a := f.AddSeries("fast")
	b := f.AddSeries("slow")
	a.Append(0.5, 0.5)
	a.Append(1.0, 1.0)
	b.Append(5.0, 0.5)
	csv := f.CSV()
	if !strings.HasPrefix(csv, "fast_x,fast,slow_x,slow\n") {
		t.Fatalf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "0.5,0.5,5,0.5") {
		t.Fatalf("csv row missing: %q", csv)
	}
	if !strings.Contains(csv, "1,1,,") {
		t.Fatalf("csv padding missing: %q", csv)
	}
	tbl := f.Table()
	if !strings.Contains(tbl, "fast") || !strings.Contains(tbl, "slow") {
		t.Fatalf("table missing series: %q", tbl)
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		var d Dist
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			d.Add(v)
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		a, b := d.Percentile(p1), d.Percentile(p2)
		return a <= b && a >= d.Min() && b <= d.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Values returns a copy of the samples in sorted order.
func (d *Dist) Values() []float64 {
	d.ensureSorted()
	out := make([]float64, len(d.values))
	copy(out, d.values)
	return out
}

// Summary renders a one-line digest.
func (d *Dist) Summary(unit string) string {
	return fmt.Sprintf("n=%d min=%.4g p50=%.4g mean=%.4g p90=%.4g p99=%.4g max=%.4g %s",
		d.N(), d.Min(), d.Median(), d.Mean(), d.Percentile(90), d.Percentile(99), d.Max(), unit)
}

// Stddev returns the population standard deviation.
func (d *Dist) Stddev() float64 {
	n := len(d.values)
	if n == 0 {
		return 0
	}
	mean := d.Mean()
	var ss float64
	for _, v := range d.values {
		dv := v - mean
		ss += dv * dv
	}
	return math.Sqrt(ss / float64(n))
}
