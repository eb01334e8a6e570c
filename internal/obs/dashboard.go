package obs

import (
	"bytes"
	"fmt"
	"html/template"
	"net/http"
	"time"

	"eventcap/internal/stats"
)

// dashboardTmpl renders /debug/runs: active runs with their live
// progress line, completed runs with phase bars, and links to the other
// debug surfaces. Pure stdlib html/template; values are escaped by the
// template engine.
var dashboardTmpl = template.Must(template.New("runs").Parse(`<!DOCTYPE html>
<html>
<head>
<title>eventcap runs</title>
<style>
body { font-family: monospace; margin: 1.5em; background: #fafafa; color: #222; }
h1 { font-size: 1.2em; }
h2 { font-size: 1em; margin-top: 1.5em; }
table { border-collapse: collapse; }
td, th { padding: 0.2em 0.8em; text-align: left; border-bottom: 1px solid #ddd; }
.bar { display: inline-block; height: 0.8em; background: #4a90d9; vertical-align: middle; }
.bar.b1 { background: #7bb661; }
.bar.b2 { background: #d9a44a; }
.bar.b3 { background: #c75d5d; }
.phase { white-space: nowrap; }
.spark { letter-spacing: 1px; color: #4a90d9; }
.err { color: #c00; }
.dim { color: #888; }
</style>
</head>
<body>
<h1>eventcap runs</h1>
<p class="dim">
<a href="/debug/vars">/debug/vars</a> ·
<a href="/debug/pprof/">/debug/pprof</a> ·
<a href="/debug/trace">/debug/trace</a>
</p>

<h2>active ({{len .Active}})</h2>
{{if .Active}}
<table>
<tr><th>run</th><th>since</th><th>progress</th><th>qom (95% CI)</th><th>convergence</th><th>digest</th></tr>
{{range .Active}}
<tr>
<td>{{.Name}}</td>
<td>{{.Since}}</td>
<td>{{.Progress}}</td>
<td>{{.QoM}}</td>
<td class="spark">{{.Spark}}</td>
<td class="dim">{{.Digest}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="dim">no runs in flight</p>{{end}}

<h2>completed ({{len .Completed}})</h2>
{{if .Completed}}
<table>
<tr><th>run</th><th>status</th><th>engine</th><th>wall</th><th>qom (95% CI)</th><th>phases</th></tr>
{{range .Completed}}
<tr>
<td>{{.Name}}</td>
<td{{if .Failed}} class="err"{{end}}>{{.Status}}</td>
<td>{{.Engine}}</td>
<td>{{.Wall}}</td>
<td>{{.QoM}}</td>
<td>{{range $i, $p := .Phases}}<span class="phase" title="{{$p.Detail}}"><span class="bar b{{$p.Color}}" style="width: {{$p.Width}}px"></span> {{$p.Name}} {{$p.Wall}}</span> {{end}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="dim">no completed runs</p>{{end}}
</body>
</html>
`))

type dashPhase struct {
	Name   string
	Wall   string
	Detail string
	Width  int // bar width in px, proportional to the run's wall time
	Color  int // palette index, cycling
}

type dashActive struct {
	Name     string
	Since    string
	Progress string
	QoM      string
	Spark    string
	Digest   string
}

type dashCompleted struct {
	Name   string
	Status string
	Failed bool
	Engine string
	Wall   string
	QoM    string
	Phases []dashPhase
}

// fmtQoM renders a report's point estimate with its CI half-width
// ("0.8123 ± 0.0042"), or the estimate alone when the report has no
// interval.
func fmtQoM(r stats.Report) string {
	if r.Level == 0 {
		return fmt.Sprintf("%.4f", r.Mean)
	}
	return fmt.Sprintf("%.4f ± %.4f", r.Mean, r.HalfWidth)
}

type dashData struct {
	Active    []dashActive
	Completed []dashCompleted
}

// phaseBars flattens a run's top-level phases into bar specs. Bars
// scale against the run's total wall time, maxWidth px for the whole
// run.
func phaseBars(root *Phase) []dashPhase {
	if root == nil {
		return nil
	}
	const maxWidth = 160
	total := root.WallMicros
	if total <= 0 {
		total = 1
	}
	phases := root.Phases
	if len(phases) == 0 {
		phases = []*Phase{root}
	}
	out := make([]dashPhase, 0, len(phases))
	for i, p := range phases {
		w := int(p.WallMicros * maxWidth / total)
		if w < 1 {
			w = 1
		}
		out = append(out, dashPhase{
			Name:   p.Name,
			Wall:   (time.Duration(p.WallMicros) * time.Microsecond).Round(time.Millisecond).String(),
			Detail: fmt.Sprintf("%s: %d span(s), %dµs", p.Name, p.Count, p.WallMicros),
			Width:  w,
			Color:  i % 4,
		})
	}
	return out
}

// Handler serves the registry as the /debug/runs HTML dashboard.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		data := dashData{}
		for _, a := range r.ActiveRuns() {
			v := dashActive{
				Name:   a.Name,
				Since:  time.Since(a.Started).Round(time.Second).String(),
				Digest: a.Digest,
			}
			if a.Progress != nil {
				v.Progress = a.Progress.Line()
			} else {
				v.Progress = "running"
			}
			if r, ok := a.Stats.Last(); ok {
				v.QoM = fmtQoM(r)
				v.Spark = a.Stats.Sparkline()
			} else {
				v.QoM = "–"
			}
			data.Active = append(data.Active, v)
		}
		for _, c := range r.CompletedRuns() {
			m := c.Manifest
			v := dashCompleted{
				Name:   m.Experiment,
				Status: "ok",
				Engine: m.Config.Engine,
				Wall:   (time.Duration(m.WallMillis) * time.Millisecond).String(),
				QoM:    "–",
				Phases: phaseBars(m.Phases),
			}
			if m.Error != "" {
				v.Status, v.Failed = "error", true
			}
			if s := m.Stats; s != nil {
				v.QoM = fmtQoM(*s)
			}
			data.Completed = append(data.Completed, v)
		}
		var buf bytes.Buffer
		if err := dashboardTmpl.Execute(&buf, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(buf.Bytes())
	})
}
