// Package viz renders the reproduction's figures as standalone SVG using
// only the standard library: time-series line charts (temperature and duty
// traces, step responses) and floorplan heat maps (the localized-hot-spot
// pictures behind Figures 2-3).
package viz

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/floorplan"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	Xs   []float64
	Ys   []float64
}

// ChartConfig controls LineChart rendering.
type ChartConfig struct {
	Title  string
	XLabel string
	YLabel string
	// HLines draws labeled horizontal reference lines (e.g., the
	// emergency and trigger thresholds).
	HLines map[string]float64
}

// palette is a color-blind-safe categorical palette.
var palette = []string{
	"#0072b2", "#d55e00", "#009e73", "#cc79a7",
	"#e69f00", "#56b4e9", "#f0e442", "#000000",
}

type span struct{ lo, hi float64 }

func (s span) width() float64 { return s.hi - s.lo }

func findSpan(vals ...[]float64) span {
	sp := span{math.Inf(1), math.Inf(-1)}
	for _, vs := range vals {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v < sp.lo {
				sp.lo = v
			}
			if v > sp.hi {
				sp.hi = v
			}
		}
	}
	if math.IsInf(sp.lo, 1) {
		return span{0, 1}
	}
	if sp.width() == 0 {
		return span{sp.lo - 1, sp.hi + 1}
	}
	return sp
}

// niceTicks returns ~n human-friendly tick values covering sp.
func niceTicks(sp span, n int) []float64 {
	if n < 2 {
		n = 2
	}
	raw := sp.width() / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var ticks []float64
	for v := math.Ceil(sp.lo/step) * step; v <= sp.hi+step/1e6; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}

func fmtTick(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case a >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	case a == math.Trunc(a):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// esc escapes text for SVG.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// LineChart renders the series as a standalone SVG document.
func LineChart(cfg ChartConfig, series ...Series) string {
	const w, h = 800, 400 // pixels
	const mL, mR, mT, mB = 70, 150, 40, 55
	plotW, plotH := float64(w-mL-mR), float64(h-mT-mB)

	var xs, ys [][]float64
	for _, s := range series {
		xs = append(xs, s.Xs)
		ys = append(ys, s.Ys)
	}
	var hvals []float64
	for _, v := range cfg.HLines {
		hvals = append(hvals, v)
	}
	xsp := findSpan(xs...)
	ysp := findSpan(append(ys, hvals)...)
	// Pad the y-range 5%.
	pad := ysp.width() * 0.05
	ysp = span{ysp.lo - pad, ysp.hi + pad}

	px := func(x float64) float64 { return float64(mL) + (x-xsp.lo)/xsp.width()*plotW }
	py := func(y float64) float64 { return float64(mT) + (1-(y-ysp.lo)/ysp.width())*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	if cfg.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">%s</text>`+"\n", w/2, esc(cfg.Title))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", mL, mT, mL, h-mB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", mL, h-mB, w-mR, h-mB)
	for _, t := range niceTicks(xsp, 8) {
		x := px(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`+"\n", x, h-mB, x, h-mB+5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n", x, h-mB+18, fmtTick(t))
	}
	for _, t := range niceTicks(ysp, 6) {
		y := py(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`+"\n", mL-5, y, mL, y)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#dddddd"/>`+"\n", mL, y, w-mR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n", mL-8, y+4, fmtTick(t))
	}
	if cfg.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle">%s</text>`+"\n", mL+int(plotW)/2, h-12, esc(cfg.XLabel))
	}
	if cfg.YLabel != "" {
		fmt.Fprintf(&b, `<text x="18" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 18 %d)">%s</text>`+"\n",
			mT+int(plotH)/2, mT+int(plotH)/2, esc(cfg.YLabel))
	}
	// Reference lines, sorted for determinism.
	var hnames []string
	for name := range cfg.HLines {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		v := cfg.HLines[name]
		y := py(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#888888" stroke-dasharray="6,4"/>`+"\n", mL, y, w-mR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" fill="#555555">%s</text>`+"\n", w-mR+4, y+4, esc(name))
	}
	// Series.
	for i, s := range series {
		color := palette[i%len(palette)]
		var pts strings.Builder
		for j := range s.Xs {
			if j >= len(s.Ys) {
				break
			}
			fmt.Fprintf(&pts, "%.1f,%.1f ", px(s.Xs[j]), py(s.Ys[j]))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`+"\n", color, strings.TrimSpace(pts.String()))
		// Legend.
		ly := mT + 16*i
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="3"/>`+"\n", w-mR+8, ly, w-mR+28, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n", w-mR+33, ly+4, esc(s.Name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// heatColor maps t in [0,1] through a blue->yellow->red ramp.
func heatColor(t float64) string {
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	var r, g, bl float64
	switch {
	case t < 0.5:
		// blue (59,76,192) -> yellow (245,230,66)
		u := t / 0.5
		r, g, bl = 59+u*(245-59), 76+u*(230-76), 192+u*(66-192)
	default:
		// yellow -> red (180,4,38)
		u := (t - 0.5) / 0.5
		r, g, bl = 245+u*(180-245), 230+u*(4-230), 66+u*(38-66)
	}
	return fmt.Sprintf("#%02x%02x%02x", int(r), int(g), int(bl))
}

// HeatmapConfig controls FloorplanHeatmap rendering.
type HeatmapConfig struct {
	Title string
	// TempLo/TempHi anchor the color scale in Celsius; zero values
	// auto-scale to the data.
	TempLo, TempHi float64
	// Marks draws labeled iso-levels on the scale bar (e.g. the
	// emergency threshold).
	Marks map[string]float64
}

// FloorplanHeatmap renders the floorplan with each block colored by its
// temperature. temps maps blocks to Celsius.
func FloorplanHeatmap(cfg HeatmapConfig, layout floorplan.Layout, temps map[floorplan.BlockID]float64) string {
	lo, hi := cfg.TempLo, cfg.TempHi
	if lo == 0 && hi == 0 {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, t := range temps {
			lo = math.Min(lo, t)
			hi = math.Max(hi, t)
		}
		if math.IsInf(lo, 1) {
			lo, hi = 0, 1
		}
		if hi == lo {
			hi = lo + 1
		}
	}
	// Bounding box of the layout.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, r := range layout.Rects {
		minX = math.Min(minX, r.X)
		minY = math.Min(minY, r.Y)
		maxX = math.Max(maxX, r.X+r.W)
		maxY = math.Max(maxY, r.Y+r.H)
	}
	const scalePx = 70_000 // pixels per meter: 5 mm die -> 350 px
	w := int((maxX-minX)*scalePx) + 180
	h := int((maxY-minY)*scalePx) + 70

	px := func(x float64) float64 { return 20 + (x-minX)*scalePx }
	// SVG y grows downward; flip so the floorplan's +y is up.
	py := func(y, ht float64) float64 { return 40 + (maxY-y-ht)*scalePx }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	if cfg.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="24" font-family="sans-serif" font-size="15" text-anchor="middle">%s</text>`+"\n", w/2, esc(cfg.Title))
	}
	// Blocks, sorted for determinism.
	ids := make([]floorplan.BlockID, 0, len(layout.Rects))
	for id := range layout.Rects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := layout.Rects[id]
		t, ok := temps[id]
		fill := "#eeeeee"
		if ok {
			fill = heatColor((t - lo) / (hi - lo))
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="black"/>`+"\n",
			px(r.X), py(r.Y, r.H), r.W*scalePx, r.H*scalePx, fill)
		cx, cy := px(r.X)+r.W*scalePx/2, py(r.Y, r.H)+r.H*scalePx/2
		label := id.String()
		if ok {
			label = fmt.Sprintf("%s %.1f", id, t)
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n", cx, cy+4, esc(label))
	}
	// Color scale bar.
	barX := float64(w - 130)
	barH := float64(h - 110)
	for i := 0; i < 100; i++ {
		f := float64(i) / 99
		y := 40 + (1-f)*barH
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="18" height="%.2f" fill="%s"/>`+"\n", barX, y-barH/99, barH/99+0.5, heatColor(f))
	}
	fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11">%.1f</text>`+"\n", barX+24, 40+barH, lo)
	fmt.Fprintf(&b, `<text x="%.1f" y="46" font-family="sans-serif" font-size="11">%.1f</text>`+"\n", barX+24, hi)
	var marks []string
	for name := range cfg.Marks {
		marks = append(marks, name)
	}
	sort.Strings(marks)
	for _, name := range marks {
		v := cfg.Marks[name]
		f := (v - lo) / (hi - lo)
		if f < 0 || f > 1 {
			continue
		}
		y := 40 + (1-f)*barH
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n", barX-4, y, barX+22, y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10">%s</text>`+"\n", barX+24, y+3, esc(name))
	}
	b.WriteString("</svg>\n")
	return b.String()
}
