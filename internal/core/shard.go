package core

import (
	"fmt"
	"slices"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// Shard is one cache node's decision state machine, which the live node
// (cache.Middleware) and the simulator (sim.Run) both drive: the node's
// one policy and its Applier, the known universe, what the node owns
// (a standalone node its universe, a cluster shard what its router
// assigned), the recovered residents held until the policy is
// initialized, the reshard epoch, the event count and whether the node
// is deaf. Each method takes one event and returns what it owes, a
// Step. Like the Applier it does no I/O, starts no goroutine and takes
// no lock: the caller serializes calls, moves the bytes each Plan names
// and hands back failed loads (Unload). Its orders are stated here,
// once.
//
// Recovery. A restarted node's recovered residents are held (Recover);
// the universe is its repository's. The policy is initialized — a
// standalone node's at once (Init), over the births its repository
// serves too, a shard's at its router's first reshard (Gain), once that
// reshard's metadata, which names every birth it owns, has landed — and
// offered the held residents it owns, sorted (Warm); the rest are
// dropped. A Preloader's starting set (Replica, SOptimal) then joins
// them, owed as loads. A notice on a held resident drops it, so it is
// never offered stale.
//
// Reshard. A shard's first reshard installs it: it initializes the
// policy over the owned set. Every later one is a delta on the live
// policy, in two halves around the caller's registrations:
//  1. Gain validates the reshard — its epoch, its metadata, its owned
//     set — and the gained objects join the policy's universe
//     (AddObjects) and the owned set; it returns them;
//  2. the caller registers what the shard needs the notices of among
//     the gained objects and warm arrivals, and waits for the
//     registration's echo, so every notice on them arrives;
//  3. Settle drops the lost objects from the policy's universe — a lost
//     resident with its outstanding updates — and sets the capacity
//     (Forgetter), makes the owned set exactly the new one, and offers
//     the warm arrivals it owns and does not hold, sorted (Warm), so
//     under capacity pressure carried residents win over arrivals; it
//     returns the lost objects;
//  4. the caller unregisters the lost objects and waits for the drop's
//     echo, so no notice on them arrives once the reshard is answered.
//
// A resident the shard keeps keeps its outstanding updates and what the
// policy learned about it. Gained objects a policy loads at once
// (Replica) load uncharged.
//
// Gap and resume. From Gap until Resume the shard is deaf, and every
// query ships without consulting the policy. Resume evicts every
// resident with its outstanding updates — each leaves the policy's
// universe (Forgetter) and rejoins it cold (AddObjects) — and the held
// ones.
//
// Degraded mode. A policy without Forgetter takes only reshards that
// gain objects at an unchanged capacity, and its Resume fails, so the
// shard stays deaf and every query keeps shipping.
type Shard struct {
	policy     Policy
	opt        Optional
	applier    *Applier
	table      *objectTable   // the known universe
	configured []model.Object // what Init initializes over, with births
	capacity   cost.Bytes
	resize     func(owned []model.Object) cost.Bytes
	owned      *idSet // empty until Init or a cluster shard's install
	held       []model.ObjectID
	epoch      int
	events     int64
	deaf       bool
	pending    *reshardDelta // a Gain awaiting its Settle
}

// ShardConfig parameterizes a Shard.
type ShardConfig struct {
	Policy   Policy // kept for the shard's whole life
	Objects  []model.Object
	Capacity cost.Bytes
	// Resize recomputes the capacity for a new owned universe, and for
	// the universe births grew at Init; nil keeps Capacity.
	Resize func(owned []model.Object) cost.Bytes
}

// Step is what one event owes the shard's caller: the Plan the Applier
// accepted, and one message per violation it found.
type Step struct {
	Plan
	Violations []string
}

// Optional lists the optional interfaces a policy implements, each nil
// when it does not, and whether it needs only the notices of the
// objects it holds (ScopedNotices). OptionalOf is the one place they are
// probed; growth and warmth are part of Policy itself.
type Optional struct {
	Preloader     Preloader
	Forgetter     Forgetter
	ScopedNotices bool
}

// OptionalOf probes p for its optional interfaces.
func OptionalOf(p Policy) Optional {
	var o Optional
	o.Preloader, _ = p.(Preloader)
	o.Forgetter, _ = p.(Forgetter)
	_, o.ScopedNotices = p.(ScopedNotices)
	return o
}

// NewShard returns a shard that owns nothing and whose policy is not yet
// initialized: Init makes it a standalone node, which owns its whole
// universe, and a cluster shard's first reshard installs what it owns.
func NewShard(cfg ShardConfig) *Shard {
	s := &Shard{
		policy:     cfg.Policy,
		opt:        OptionalOf(cfg.Policy),
		table:      newObjectTable(len(cfg.Objects)),
		configured: cfg.Objects,
		capacity:   cfg.Capacity,
		resize:     cfg.Resize,
		owned:      newIDSet(0),
	}
	for _, o := range cfg.Objects {
		s.table.put(o)
	}
	s.applier = NewApplier(cfg.Capacity, func(id model.ObjectID) (cost.Bytes, bool) {
		o, ok := s.table.get(id)
		return o.Size, ok
	})
	return s
}

// Recover holds a previous incarnation's residents, before Init or the
// first reshard.
func (s *Shard) Recover(residents []model.ObjectID) {
	slices.Sort(residents)
	s.held = slices.Compact(residents)
}

// Start is what initializing the policy did: it offered Held recovered
// residents and adopted Adopted (none when the offer failed: WarmErr),
// and it owes a Preloader's starting set, charged when Charge is set.
type Start struct {
	Held, Adopted int
	WarmErr       error
	Preload       []model.Object
	Charge        bool
}

// Init initializes a standalone node's policy over the configured
// objects plus births, the ones its repository serves, at the capacity
// Resize gives that universe when the births grew it. The node owns
// that universe, and every birth it adopts later.
func (s *Shard) Init(births []model.Birth) (Start, error) {
	universe := slices.Clip(s.configured)
	for _, b := range births {
		if !s.table.has(b.Object.ID) {
			s.table.put(b.Object)
			universe = append(universe, b.Object)
		}
	}
	capacity := s.capacity
	if len(universe) > len(s.configured) && s.resize != nil {
		capacity = s.resize(universe)
	}
	s.configured = nil
	for _, o := range universe {
		s.owned.add(o.ID)
	}
	return s.init(universe, capacity, s.owned.has)
}

// init initializes the policy over universe at capacity and adopts the
// held residents it owns and its starting set at once: from here on its
// decisions apply, so the applier must hold what it believes resident.
func (s *Shard) init(universe []model.Object, capacity cost.Bytes, owns func(model.ObjectID) bool) (Start, error) {
	if err := s.policy.Init(universe, capacity); err != nil {
		return Start{}, fmt.Errorf("core: init policy: %w", err)
	}
	s.applier.Resize(capacity)
	st := Start{Held: len(s.held)}
	st.Adopted, st.WarmErr = s.offer(s.held, owns)
	s.held = nil
	if s.opt.Preloader == nil {
		return st, nil
	}
	ids, charge := s.opt.Preloader.Preload()
	ids = slices.DeleteFunc(slices.Clone(ids), s.applier.Resident)
	if err := s.applier.Preload(ids); err != nil {
		return Start{}, fmt.Errorf("core: preload: %w", err)
	}
	st.Preload, st.Charge = make([]model.Object, len(ids)), charge
	for i, id := range ids {
		st.Preload[i], _ = s.table.get(id)
	}
	return st, nil
}

// offer offers the policy the ids it owns and does not hold, sorted,
// and makes what it adopts resident. It returns how many it adopted.
func (s *Shard) offer(ids []model.ObjectID, owns func(model.ObjectID) bool) (int, error) {
	ids = slices.DeleteFunc(slices.Clone(ids), func(id model.ObjectID) bool {
		return !owns(id) || s.applier.Resident(id)
	})
	if len(ids) == 0 {
		return 0, nil
	}
	slices.Sort(ids)
	adopted, err := s.policy.Warm(slices.Compact(ids))
	if err == nil {
		err = s.applier.Adopt(adopted)
	}
	if err != nil {
		return 0, err
	}
	return len(adopted), nil
}

// event is the shard's next event of kind, numbered by its count.
func (s *Shard) event(kind model.EventKind) model.Event {
	return model.Event{Seq: s.events + 1, Kind: kind}
}

// apply applies d on e.
func (s *Shard) apply(e *model.Event, d Decision) Step {
	s.events++
	p, violations := s.applier.Apply(e, d)
	return Step{Plan: p, Violations: violations}
}

// Replay applies a trace's event — a query, an update's notice or one
// birth — keeping its Seq, so violations carry the trace's numbering.
// A birth of a known object is an error.
func (s *Shard) Replay(e *model.Event) (Step, error) {
	switch e.Kind {
	case model.EventQuery:
		return s.query(e)
	case model.EventUpdate:
		return s.notice(e)
	case model.EventBirth:
		step, fresh, err := s.adopt(e, []model.Birth{*e.Birth})
		if err == nil && len(fresh) == 0 {
			err = fmt.Errorf("core: birth of existing object %d", e.Birth.Object.ID)
		}
		return step, err
	}
	return Step{}, fmt.Errorf("core: event %d has unknown kind %d", e.Seq, int(e.Kind))
}

// Query decides how to answer q: an error when q touches an object the
// node does not own (or does not know), a ship while it is deaf, else
// the policy's call.
func (s *Shard) Query(q *model.Query) (Step, error) {
	e := s.event(model.EventQuery)
	e.Query = q
	return s.query(&e)
}

func (s *Shard) query(e *model.Event) (Step, error) {
	q := e.Query
	for _, id := range q.Objects {
		if !s.owned.has(id) {
			if !s.table.has(id) {
				return Step{}, fmt.Errorf("query %d touches unknown object %d", q.ID, id)
			}
			return Step{}, fmt.Errorf("query %d touches object %d not owned by this shard", q.ID, id)
		}
	}
	if s.deaf { // the policy's view of currency is blind
		return Step{Plan: Plan{ShipQuery: true}}, nil
	}
	d, err := s.policy.OnQuery(q)
	if err != nil {
		return Step{}, fmt.Errorf("policy: %w", err)
	}
	return s.apply(e, d), nil
}

// Notice hands the policy a notice of u. One on an object the node
// does not own — a cluster shard's registrations may pass a superset —
// only drops a held resident.
func (s *Shard) Notice(u *model.Update) (Step, error) {
	e := s.event(model.EventUpdate)
	e.Update = u
	return s.notice(&e)
}

func (s *Shard) notice(e *model.Event) (Step, error) {
	u := e.Update
	if !s.owned.has(u.Object) {
		if i, ok := slices.BinarySearch(s.held, u.Object); ok {
			s.held = slices.Delete(s.held, i, i+1)
		}
		return Step{}, nil
	}
	d, err := s.policy.OnUpdate(u)
	if err != nil {
		return Step{}, fmt.Errorf("policy OnUpdate: %w", err)
	}
	return s.apply(e, d), nil
}

// Births adopts newly published objects as one event: the ones the shard
// does not know join the policy's universe and the owned set (a
// standalone node owns every birth, and a router grants one only to its
// owners). It returns them; known ones are skipped (idempotence).
func (s *Shard) Births(births []model.Birth) (Step, []model.Birth, error) {
	e := s.event(model.EventBirth)
	return s.adopt(&e, births)
}

func (s *Shard) adopt(e *model.Event, births []model.Birth) (Step, []model.Birth, error) {
	if s.awaitingInstall() {
		return Step{}, nil, fmt.Errorf("core: this shard owns nothing until its router's first reshard")
	}
	var (
		fresh []model.Birth
		objs  []model.Object
	)
	for _, b := range births {
		if !s.table.has(b.Object.ID) {
			fresh = append(fresh, b)
			objs = append(objs, b.Object)
		}
	}
	if len(fresh) == 0 {
		return Step{}, nil, nil
	}
	step, err := s.grow(e, objs)
	if err != nil {
		return Step{}, nil, err
	}
	for _, o := range objs {
		s.owned.add(o.ID)
	}
	return step, fresh, nil
}

// awaitingInstall reports whether the policy is not yet initialized,
// the only time the node owns nothing.
func (s *Shard) awaitingInstall() bool { return s.owned.len() == 0 }

// grow extends the policy's universe and the shard's with objs, and
// applies the policy's decision on e.
func (s *Shard) grow(e *model.Event, objs []model.Object) (Step, error) {
	d, err := s.policy.AddObjects(objs)
	if err != nil {
		return Step{}, fmt.Errorf("core: policy admit objects: %w", err)
	}
	for _, o := range objs {
		s.table.put(o)
	}
	return s.apply(e, d), nil
}

// forget drops ids from the policy's universe and sets its capacity,
// and applies the evictions both need.
func (s *Shard) forget(ids []model.ObjectID, capacity cost.Bytes) (Step, error) {
	if s.opt.Forgetter == nil {
		return Step{}, fmt.Errorf("core: policy %s cannot forget objects or change its capacity", s.policy.Name())
	}
	d, err := s.opt.Forgetter.Forget(ids, capacity)
	if err != nil {
		return Step{}, fmt.Errorf("core: policy forget objects: %w", err)
	}
	s.applier.Resize(capacity)
	e := s.event(0)
	return s.apply(&e, d), nil
}

// reshardDelta is what one reshard changes, kept from Gain to Settle.
type reshardDelta struct {
	want     *idSet
	capacity cost.Bytes
}

// ReshardGain is what a reshard's first half did: the gained objects'
// joining, whose loads (Replica's) are owed uncharged; an install's
// Start; and the objects the shard did not own before.
type ReshardGain struct {
	Step
	Start  Start
	Gained []model.ObjectID
}

// Gain is a reshard's first half, to owned. meta supplies metadata for
// objects born after this node spawned; an entry that disagrees with
// what the node knows is refused: the router and this node were built
// from different surveys. Nothing changes but the learned metadata when
// it fails; Settle follows a Gain that succeeds.
func (s *Shard) Gain(epoch int, owned []model.ObjectID, meta []model.Object) (ReshardGain, error) {
	// Reject frames from a superseded resize: a reshard that timed out
	// router-side can still arrive late, and applying it would clobber
	// the owned set a newer epoch installed. Widen and narrow share an
	// epoch, so equality is allowed. Epoch 0 is a router's install
	// (NewRouter), which starts that router's epochs over: it always
	// applies, so a restarted router takes over shards an earlier
	// router process left at a higher epoch. Within one router it is
	// never stale — NewRouter waits for every install reply before it
	// serves, and fails without resizing when one does not come.
	if epoch > 0 && epoch < s.epoch {
		return ReshardGain{}, fmt.Errorf("core: reshard for epoch %d superseded by epoch %d", epoch, s.epoch)
	}
	for _, o := range meta {
		known, ok := s.table.get(o.ID)
		if !ok {
			s.table.put(o)
			continue
		}
		if known != o {
			return ReshardGain{}, fmt.Errorf("core: reshard metadata for object %d disagrees: the router has %+v, this node has %+v", o.ID, o, known)
		}
	}
	d := &reshardDelta{want: newIDSet(len(owned)), capacity: s.capacity}
	var objs, gained []model.Object
	for _, id := range owned {
		o, ok := s.table.get(id)
		if !ok {
			return ReshardGain{}, fmt.Errorf("core: reshard names object %d outside the known universe", id)
		}
		if d.want.has(id) {
			continue
		}
		d.want.add(id)
		objs = append(objs, o)
		if !s.owned.has(id) {
			gained = append(gained, o)
		}
	}
	if len(objs) == 0 {
		return ReshardGain{}, fmt.Errorf("core: reshard leaves the node with no objects")
	}
	if s.resize != nil {
		d.capacity = s.resize(objs)
	}
	install := s.awaitingInstall()
	loses := len(objs)-len(gained) < s.owned.len()
	if !install && s.opt.Forgetter == nil && (loses || d.capacity != s.applier.Capacity()) {
		return ReshardGain{}, fmt.Errorf("core: policy %s cannot forget objects or change its capacity, as this reshard needs", s.policy.Name())
	}
	var (
		g   ReshardGain
		err error
	)
	if install {
		g.Start, err = s.init(objs, d.capacity, d.want.has)
	} else if len(gained) > 0 {
		e := s.event(model.EventBirth)
		g.Step, err = s.grow(&e, gained)
	}
	if err != nil {
		return ReshardGain{}, err
	}
	s.epoch = epoch
	g.Gained = make([]model.ObjectID, len(gained))
	for i, o := range gained {
		s.owned.add(o.ID)
		g.Gained[i] = o.ID
	}
	s.pending = d
	return g, nil
}

// ReshardSettle is what a reshard's second half did: the evictions of
// the lost residents and of the capacity change, the objects the shard
// no longer owns, in ascending order, and how many warm arrivals it
// adopted (WarmErr: the offer failed, and they stay cold).
type ReshardSettle struct {
	Step
	Lost     []model.ObjectID
	Migrated int
	WarmErr  error
}

// Settle is a reshard's second half, once the registrations the caller
// waits for have echoed.
// The warm IDs are hints: the router read them from the old primary's
// resident list, which may have moved on since. When the forget fails
// the owned set stays old ∪ gained.
func (s *Shard) Settle(warm []model.ObjectID) (ReshardSettle, error) {
	d := s.pending
	s.pending = nil
	if d == nil {
		return ReshardSettle{}, fmt.Errorf("core: reshard settle without a gain")
	}
	var lost []model.ObjectID
	for id := range s.owned.all() {
		if !d.want.has(id) {
			lost = append(lost, id)
		}
	}
	slices.Sort(lost)
	r := ReshardSettle{Lost: lost}
	if len(lost) > 0 || d.capacity != s.applier.Capacity() {
		var err error
		if r.Step, err = s.forget(lost, d.capacity); err != nil {
			return ReshardSettle{}, err
		}
	}
	s.owned = d.want
	r.Migrated, r.WarmErr = s.offer(warm, s.owned.has)
	return r, nil
}

// Gap marks the shard deaf: its notice stream is lost.
func (s *Shard) Gap() { s.deaf = true }

// Resume ends a gap. The notices sent while the shard was deaf are lost
// and an outstanding update ID from before the gap may no longer ship,
// so any resident may be stale, and all leave. The Step is the rejoin's,
// whose loads (Replica's) are owed uncharged.
func (s *Shard) Resume() (Step, error) {
	s.held = nil
	var step Step
	if residents := s.applier.Residents(); len(residents) > 0 {
		objs := make([]model.Object, len(residents))
		for i, id := range residents {
			objs[i], _ = s.table.get(id)
		}
		forgot, err := s.forget(residents, s.applier.Capacity())
		if err != nil {
			return Step{}, err
		}
		e := s.event(model.EventBirth)
		if step, err = s.grow(&e, objs); err != nil {
			return Step{}, err
		}
		step.Violations = append(forgot.Violations, step.Violations...)
	}
	s.deaf = false
	return step, nil
}

// Unload rolls back a load that failed to materialize.
func (s *Shard) Unload(id model.ObjectID) { s.applier.Unload(id) }

// Owned lists what the node owns: a standalone node's whole universe,
// a cluster shard's owned set.
func (s *Shard) Owned() []model.ObjectID { return slices.Collect(s.owned.all()) }

// Object is the shard's metadata for id.
func (s *Shard) Object(id model.ObjectID) (model.Object, bool) { return s.table.get(id) }

// Residents lists the resident objects in ascending order: until the
// policy's initialization, the held recovered ones.
func (s *Shard) Residents() []model.ObjectID {
	if len(s.held) > 0 {
		return slices.Clone(s.held)
	}
	return s.applier.Residents()
}

// Len is how many objects are resident, held ones included.
func (s *Shard) Len() int { return len(s.held) + s.applier.Len() }

// Used is the resident objects' total size.
func (s *Shard) Used() cost.Bytes { return s.applier.Used() }

// Deaf reports whether the shard is between a Gap and its Resume.
func (s *Shard) Deaf() bool { return s.deaf }
