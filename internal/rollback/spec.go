package rollback

import (
	"encoding/json"
	"fmt"
	"math"

	"defined/internal/checkpoint"
	"defined/internal/ordering"
	"defined/internal/vtime"
)

// EngineSpec selects substrate features. It is the one way an engine is
// configured: a scenario file's "engine" block, the literal
// defined.NewNetwork takes, and what New builds from. Nil pointers mean
// "the documented default"; ResolveEngine replaces every one with an
// explicit value.
type EngineSpec struct {
	// Baseline disables the DEFINED substrate entirely (default false):
	// no ordering, no checkpoints, no rollbacks, no determinism.
	Baseline *bool `json:"baseline,omitempty"`
	// Ordering names the pseudorandom ordering function: "OO" (optimized,
	// default) or "RO" (random).
	Ordering string `json:"ordering,omitempty"`
	// OrderingSeed seeds "RO" (default: Seed). A recording carries it, so
	// a replay orders with the production function.
	OrderingSeed *uint64 `json:"orderingSeed,omitempty"`
	// Strategy is the checkpoint strategy as Timing/Mode ("TM/MI",
	// "TF/FK", ...; default "TM/MI", the paper-recommended point).
	Strategy string `json:"strategy,omitempty"`
	// Seed drives physical jitter and every derived random stream
	// (default 0).
	Seed *uint64 `json:"seed,omitempty"`
	// JitterScale scales link jitter (default 1.0; 0 runs every link at
	// its mean delay).
	JitterScale *float64 `json:"jitterScale,omitempty"`
	// ChainBound caps causal chain length per timestep (default 64, at
	// most math.MaxInt32: msg.Annotation.Chain is an int32); longer
	// chains roll into the next group (paper §2.2).
	ChainBound *int `json:"chainBound,omitempty"`
	// SettleBound pins a static history retirement bound (default 0s =
	// the adaptive straggler-margin estimator; a pin runs as that
	// estimator with floor = ceiling = the pin; StaticSettle(g) is the
	// paper's footnote-3 rule).
	SettleBound *vtime.Span `json:"settleBound,omitempty"`
	// Deferral enables rollback-avoidance arrival deferral (default true
	// under "OO" ordering, false under "RO" — deferral predicts
	// predecessors from ordering keys, which random ordering defeats;
	// explicitly requesting both is a validation error).
	Deferral *bool `json:"deferral,omitempty"`
	// DeferSlack is the ordering-key gap below which an arrival is held
	// (default 8ms; meaningful only with Deferral).
	DeferSlack *vtime.Span `json:"deferSlack,omitempty"`
	// DeferMax caps any single deferral hold (default 100ms).
	DeferMax *vtime.Span `json:"deferMax,omitempty"`
	// Shards runs the simulator on that many per-core shards (default 0 =
	// sequential; committed executions are bit-identical for any value).
	Shards *int `json:"shards,omitempty"`
	// Lookahead enables per-link lookahead (default false). Lookahead
	// only acts through deferral or shard windows; enabling it with both
	// absent is a validation error, not a silent no-op.
	Lookahead *bool `json:"lookahead,omitempty"`
	// PerLinkLoss drops each transmission with this probability
	// (default 0).
	PerLinkLoss *float64 `json:"perLinkLoss,omitempty"`
	// Duplication duplicates each transmission with this probability
	// (default 0).
	Duplication *float64 `json:"duplication,omitempty"`
	// MessagePool enables refcounted wire-message pooling (default true).
	MessagePool *bool `json:"messagePool,omitempty"`
	// RouteCache enables the daemons' epoch-keyed route-computation cache
	// (default true).
	RouteCache *bool `json:"routeCache,omitempty"`
	// Poison enables the pool's use-after-release poison mode (default
	// false; requires MessagePool).
	Poison *bool `json:"poison,omitempty"`
	// Record captures the partial recording (default false). A recording
	// holds external events only, and replay has no crash model, so a
	// scenario may not record a run with a fault plan.
	Record *bool `json:"record,omitempty"`
	// DeliveryLog retains committed delivery sequences (default false).
	DeliveryLog *bool `json:"deliveryLog,omitempty"`
}

// ResolveEngine resolves and validates an engine block: a deep copy with
// every default written explicitly, checked against the contradiction
// table. A contradictory block returns the defaulted copy with the error,
// which wraps the bare rule (errors.Unwrap) so a scenario can name itself
// in its place. The texts are the scenario layer's, which the CLIs pin.
func ResolveEngine(e EngineSpec) (EngineSpec, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return EngineSpec{}, fmt.Errorf("scenario: spec not serializable: %v", err)
	}
	var c EngineSpec
	if err := json.Unmarshal(b, &c); err != nil {
		return EngineSpec{}, fmt.Errorf("scenario: spec round-trip failed: %v", err)
	}
	c.writeDefaults()
	if err := c.validate(); err != nil {
		return c, fmt.Errorf("scenario (engine): %w", err)
	}
	return c, nil
}

// writeDefaults is the engine's one default table.
//
// The deferral defaults: slack is sized to absorb the lateness
// *differentials* that actually cause rollbacks — accumulated jitter plus
// differential rollback-repair charges between racing flood paths — which
// run to a few milliseconds, while staying at or below one typical link
// delay (5–40 ms on the evaluation topologies) so a hold never costs more
// convergence latency than one extra hop. On the Sprintlink link-flap
// workload 8 ms removes ~90 % of rollbacks for ~10 ms of added quiescence
// latency; beyond it the returns diminish and the latency cost keeps
// growing. The per-arrival budget (DeferMax) mostly matters for chained
// holds — an arrival queued behind held predecessors waits for them — and
// 100 ms is where the rollback reduction saturates on the same workload (a
// tighter 25 ms budget forfeits half of it by cutting storm-time chains
// short).
func (e *EngineSpec) writeDefaults() {
	if e.Baseline == nil {
		e.Baseline = ptr(false)
	}
	if e.Ordering == "" {
		e.Ordering = "OO"
	}
	if e.Seed == nil {
		e.Seed = ptr[uint64](0)
	}
	if e.OrderingSeed == nil {
		e.OrderingSeed = ptr(*e.Seed)
	}
	if e.Strategy == "" {
		e.Strategy = checkpoint.Default.String()
	}
	if e.JitterScale == nil {
		e.JitterScale = ptr(1.0)
	}
	if e.ChainBound == nil {
		e.ChainBound = ptr(64)
	}
	if e.SettleBound == nil {
		e.SettleBound = vtime.Dur(0) // adaptive estimator
	}
	if e.Deferral == nil {
		// Deferral predicts predecessors from ordering keys; random
		// ordering defeats the prediction, so RO runs default it off.
		e.Deferral = ptr(e.Ordering != "RO")
	}
	if e.DeferSlack == nil {
		e.DeferSlack = vtime.Dur(8 * vtime.Millisecond)
	}
	if e.DeferMax == nil {
		e.DeferMax = vtime.Dur(100 * vtime.Millisecond)
	}
	if e.Shards == nil {
		e.Shards = ptr(0)
	}
	if e.Lookahead == nil {
		e.Lookahead = ptr(false)
	}
	if e.PerLinkLoss == nil {
		e.PerLinkLoss = ptr(0.0)
	}
	if e.Duplication == nil {
		e.Duplication = ptr(0.0)
	}
	if e.MessagePool == nil {
		e.MessagePool = ptr(true)
	}
	if e.RouteCache == nil {
		e.RouteCache = ptr(true)
	}
	if e.Poison == nil {
		e.Poison = ptr(false)
	}
	if e.Record == nil {
		e.Record = ptr(false)
	}
	if e.DeliveryLog == nil {
		e.DeliveryLog = ptr(false)
	}
}

// validate is the contradiction table for a defaulted engine block. Every
// rule names both sides of the contradiction.
func (e *EngineSpec) validate() error {
	if _, err := ordering.ByName(e.Ordering, *e.OrderingSeed); err != nil {
		return err
	}
	if _, err := checkpoint.ParseStrategy(e.Strategy); err != nil {
		return err
	}
	switch {
	case *e.Baseline && *e.Shards > 0:
		return fmt.Errorf("baseline with shards=%d — the baseline has no rollback layer to shard", *e.Shards)
	case *e.Baseline && *e.Lookahead:
		return fmt.Errorf("baseline with lookahead — the baseline has no speculation to bound")
	case *e.Poison && !*e.MessagePool:
		return fmt.Errorf("message poison without the message pool — poison is a pool debug mode")
	case *e.Lookahead && !*e.Deferral && *e.Shards == 0:
		return fmt.Errorf("lookahead with deferral off and no shards — nothing consumes the per-link bounds")
	case *e.Deferral && e.Ordering == "RO":
		return fmt.Errorf("deferral with RO ordering — random ordering defeats predecessor prediction")
	case *e.PerLinkLoss < 0 || *e.PerLinkLoss > 1:
		return fmt.Errorf("perLinkLoss %g outside [0,1]", *e.PerLinkLoss)
	case *e.Duplication < 0 || *e.Duplication > 1:
		return fmt.Errorf("duplication %g outside [0,1]", *e.Duplication)
	case *e.JitterScale < 0:
		return fmt.Errorf("jitterScale %g negative", *e.JitterScale)
	case *e.Shards < 0:
		return fmt.Errorf("shards %d negative", *e.Shards)
	case *e.ChainBound < 1:
		return fmt.Errorf("chainBound %d must be >= 1", *e.ChainBound)
	case *e.ChainBound > math.MaxInt32:
		return fmt.Errorf("chainBound %d above %d — a message's chain length is an int32", *e.ChainBound, math.MaxInt32)
	case *e.Deferral && e.DeferSlack.V() <= 0:
		return fmt.Errorf("deferral enabled with non-positive slack %s", *e.DeferSlack)
	case *e.Deferral && e.DeferMax.V() < e.DeferSlack.V():
		return fmt.Errorf("deferMax %s below deferSlack %s", *e.DeferMax, *e.DeferSlack)
	}
	return nil
}

func ptr[T any](v T) *T { return &v }
