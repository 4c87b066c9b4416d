package experiments

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/internal/viz"
)

// TraceChart renders a Trace result as the temperature/duty figure: the
// hottest block's temperature and the fetch duty share one axis, the duty
// scaled into the thermal band (100 = fetch off, 111.5 = full), with the
// emergency and trigger thresholds drawn. tempName and dutyName label
// the two series.
func TraceChart(res *sim.Result, tempName, dutyName string) string {
	xs := make([]float64, len(res.TempTrace.Xs))
	for i, c := range res.TempTrace.Xs {
		xs[i] = float64(c)
	}
	duty := make([]float64, len(res.DutyTrace.Ys))
	for i, d := range res.DutyTrace.Ys {
		duty[i] = 100 + d*11.5
	}
	return viz.LineChart(viz.ChartConfig{
		Title:  fmt.Sprintf("%s under %s", res.Benchmark, res.Policy),
		XLabel: "cycle",
		YLabel: "temperature (C)",
		HLines: map[string]float64{
			"emergency D": bench.EmergencyTemp,
			"trigger":     bench.NonCTTrigger,
		},
	},
		viz.Series{Name: tempName, Xs: xs, Ys: res.TempTrace.Ys},
		viz.Series{Name: dutyName, Xs: xs, Ys: duty})
}

// PeakHeatmap renders a result's per-block peak temperatures on the
// floorplan over the 100-114 C scale, with marks drawn as labeled levels
// on the scale bar.
func PeakHeatmap(res *sim.Result, title string, marks map[string]float64) string {
	temps := map[floorplan.BlockID]float64{}
	for _, b := range res.Blocks {
		for _, id := range floorplan.Blocks() {
			if id.String() == b.Name {
				temps[id] = b.MaxTemp
			}
		}
	}
	return viz.FloorplanHeatmap(viz.HeatmapConfig{
		Title:  title,
		TempLo: 100,
		TempHi: 114,
		Marks:  marks,
	}, floorplan.DefaultLayout(), temps)
}
