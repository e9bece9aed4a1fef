package sim

import (
	"fmt"

	"github.com/deltacache/delta/internal/core"
	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// Scripted is a policy that replays a pre-written list of decisions, one
// per event, optionally starting from a preloaded cache. It exists so
// tests can evaluate hand-constructed plans — such as the
// two strategies of the paper's Section 3.1 example — under the
// simulator's full cost accounting and constraint checking.
type Scripted struct {
	// PolicyName labels the run.
	PolicyName string
	// Preloaded objects are resident at t=0; PreloadCharged controls
	// whether their load cost is charged.
	Preloaded      []model.ObjectID
	PreloadCharged bool
	// Decisions are consumed in event order; events beyond the script
	// get empty decisions for updates and ShipQuery for queries.
	Decisions []core.Decision

	next int
}

var _ core.Policy = (*Scripted)(nil)
var _ core.Preloader = (*Scripted)(nil)

// Name implements core.Policy.
func (p *Scripted) Name() string {
	if p.PolicyName == "" {
		return "Scripted"
	}
	return p.PolicyName
}

// Init implements core.Policy.
func (p *Scripted) Init(objects []model.Object, capacity cost.Bytes) error {
	if p.next != 0 {
		return fmt.Errorf("sim: scripted policy reused")
	}
	return nil
}

// Preload implements core.Preloader.
func (p *Scripted) Preload() ([]model.ObjectID, bool) {
	return p.Preloaded, p.PreloadCharged
}

// OnQuery implements core.Policy.
func (p *Scripted) OnQuery(q *model.Query) (core.Decision, error) {
	return p.take(true), nil
}

// OnUpdate implements core.Policy.
func (p *Scripted) OnUpdate(u *model.Update) (core.Decision, error) {
	return p.take(false), nil
}

// AddObjects implements core.Grower: a birth consumes one scripted
// decision, like any other event.
func (p *Scripted) AddObjects(objs []model.Object) (core.Decision, error) {
	return p.take(false), nil
}

// Warm implements core.Warmable: a script names every residency
// change, so it declines every offer.
func (p *Scripted) Warm(ids []model.ObjectID) ([]model.ObjectID, error) { return nil, nil }

func (p *Scripted) take(isQuery bool) core.Decision {
	if p.next < len(p.Decisions) {
		d := p.Decisions[p.next]
		p.next++
		return d
	}
	p.next++
	if isQuery {
		return core.Decision{ShipQuery: true}
	}
	return core.Decision{}
}
