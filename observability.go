package dcert

import (
	"io"
	"time"

	"dcert/internal/network"
	"dcert/internal/obs"
)

// The instrumentation plane (package internal/obs): a dependency-free metrics
// registry, a ring-buffer span tracer, a leveled structured logger, and an
// HTTP debug endpoint. A deployment is born uninstrumented; one
// EnableObservability call wires the primary issuer, the fabric, and (via
// CertPlane) every redundant issuer into a shared registry.

// Observability types (package internal/obs).
type (
	// MetricsRegistry collects counters, gauges, and histograms and renders
	// them in Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// MetricsHistogram is a fixed-bucket atomic latency histogram.
	MetricsHistogram = obs.Histogram
	// Tracer records lightweight spans into a ring buffer.
	Tracer = obs.Tracer
	// Span is one recorded trace span.
	Span = obs.Span
	// Logger is the leveled structured (logfmt) logger.
	Logger = obs.Logger
	// LogField is one structured logging key/value pair.
	LogField = obs.Field
	// LogLevel orders logger severities.
	LogLevel = obs.Level
	// DebugServer serves /metrics, /debug/spans, /healthz, and pprof.
	DebugServer = obs.DebugServer
	// Health is the /healthz payload.
	Health = obs.Health
	// MetricLabelPair is one metric label (key/value).
	MetricLabelPair = obs.Label
	// NetFaultTally is the fault layer's per-topic injection ledger.
	NetFaultTally = network.FaultTally
)

// Log levels.
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer creates a span tracer keeping the most recent capacity spans.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewLogger creates a structured logger writing logfmt lines at or above min.
func NewLogger(w io.Writer, min LogLevel, tags ...LogField) *Logger {
	return obs.NewLogger(w, min, tags...)
}

// LogF builds one structured logging field.
func LogF(key string, value any) LogField { return obs.F(key, value) }

// MetricLabel builds one metric label.
func MetricLabel(key, value string) MetricLabelPair { return obs.L(key, value) }

// EnableObservability attaches the deployment to a fresh instrumentation
// plane: the primary issuer (as "ci0"), and the network fabric. The logger
// may be nil (metrics and traces still work). Idempotent — repeated calls
// return the existing plane. Issuers added later through StartCertPlane (and
// plane restarts) join the same registry automatically.
func (d *Deployment) EnableObservability(logger *Logger) (*MetricsRegistry, *Tracer) {
	if d.reg != nil {
		return d.reg, d.tracer
	}
	d.reg = obs.NewRegistry()
	d.tracer = obs.NewTracer(4096)
	d.logger = logger
	d.net.Instrument(d.reg)
	d.mineSteps = make(map[string]*obs.Histogram, len(mineStepNames))
	for _, step := range mineStepNames {
		d.mineSteps[step] = d.reg.Histogram("dcert_mine_step_seconds",
			"Wall time per mined block of each serial step of the mining routine.", nil, obs.L("step", step))
	}
	d.serveMu.Lock()
	d.serveStep = d.mineSteps["serve"]
	d.servingLag = d.reg.Gauge("dcert_serving_lag_blocks",
		"Blocks the miner's tip is ahead of the SP's, set as the SP adopts each certified block.")
	d.serveMu.Unlock()
	d.Issuer().Instrument(d.reg, d.tracer, logger, "ci0")
	if d.engine != nil {
		d.engine.Instrument(d.reg)
	}
	if f := d.fleet.Load(); f != nil {
		f.Instrument(d.reg)
	}
	return d.reg, d.tracer
}

// mineStepNames are the timed steps of a block's way through the deployment,
// in order. The first four are Deployment.mine's: "submit" is inline
// certification or the pipelines' Submit. "serve" is the SP's and the
// fleet's adoption of the block once its certificate lands
// (serveCertified), off the mining routine's path.
var mineStepNames = [...]string{"gen", "propose", "journal", "submit", "serve"}

// mineClock times the steps of one run of the mining routine into
// dcert_mine_step_seconds and into spans under one "mine" root. Without
// EnableObservability the clock is nil: its methods record nothing and read
// no clock.
type mineClock struct {
	d     *Deployment
	root  obs.SpanHandle
	span  obs.SpanHandle
	hist  *obs.Histogram // the open step's; nil between steps
	start time.Time
}

func (d *Deployment) newMineClock() *mineClock {
	if d.mineSteps == nil {
		return nil
	}
	return &mineClock{d: d, root: d.tracer.Start("mine", 0)}
}

// step closes the open step and opens the named one.
func (c *mineClock) step(name string) {
	if c == nil {
		return
	}
	c.closeStep()
	c.hist, c.span, c.start = c.d.mineSteps[name], c.d.tracer.Start("mine."+name, c.root.ID()), time.Now()
}

func (c *mineClock) closeStep() {
	if c.hist != nil {
		c.hist.ObserveDuration(time.Since(c.start))
		c.span.End()
		c.hist = nil
	}
}

// stop closes the open step and the root span.
func (c *mineClock) stop() {
	if c == nil {
		return
	}
	c.closeStep()
	c.root.End()
}

// Observability returns the deployment's instrumentation plane (all nil
// until EnableObservability).
func (d *Deployment) Observability() (*MetricsRegistry, *Tracer, *Logger) {
	return d.reg, d.tracer, d.logger
}

// StartDebugServer enables observability (if not already enabled) and serves
// the debug endpoints on addr (host:port; ":0" picks a free port):
// /metrics, /debug/spans, /healthz, and /debug/pprof/. The health probe
// reports the primary issuer's certified tip height and certificate age.
func (d *Deployment) StartDebugServer(addr string) (*DebugServer, error) {
	d.EnableObservability(d.logger)
	return obs.StartDebugServer(addr, obs.DebugServerConfig{
		Registry: d.reg,
		Tracer:   d.tracer,
		Logger:   d.logger,
		Health:   d.health,
	})
}

// health builds the /healthz payload from the primary issuer.
func (d *Deployment) health() Health {
	ci := d.Issuer()
	tip := ci.Node().Tip()
	h := Health{TipHeight: tip.Header.Height}
	last := ci.LastCertTime()
	if last.IsZero() {
		// Healthy only while nothing has been certified because nothing has
		// been mined: a non-genesis tip with no certificate is a stall.
		h.OK = tip.Header.Height == 0
		h.CertAgeSeconds = -1
		h.Detail = "no certificate yet"
		return h
	}
	h.OK = true
	h.CertAgeSeconds = time.Since(last).Seconds()
	return h
}

// FaultTally returns the fault layer's injection ledger for one topic (zero
// without an installed fault plan).
func (d *Deployment) FaultTally(topic string) NetFaultTally {
	return d.net.FaultTally(topic)
}
