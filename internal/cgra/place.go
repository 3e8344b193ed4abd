package cgra

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rewrite"
)

// Placement assigns every mapped node a fabric coordinate. PE and
// register-file nodes occupy PE tiles (a tile hosts at most one PE core
// and at most one register file — the register file is a separate
// resource within the tile, matching the paper's register-file
// pipelining); memory nodes occupy memory tiles; I/O nodes occupy ring
// sites; interconnect registers attach to any grid tile's switch box.
type Placement struct {
	Fabric *Fabric
	Mapped *rewrite.Mapped
	Loc    []Coord // per mapped node

	// netList caches the (producer, consumer) pairs; built once by the
	// first nets() call (Place always triggers it before the placement
	// is shared, so later concurrent readers see it populated).
	netList [][2]int
}

// PlaceOptions tunes the simulated-annealing placer.
type PlaceOptions struct {
	Seed  int64
	Moves int // annealing moves; 0 = default scaled by design size

	// Seeds widens placement into a deterministic portfolio: seeds
	// Seed..Seed+Seeds-1 anneal independently (concurrently, at most
	// GOMAXPROCS at a time) and the lowest-wirelength result wins, ties
	// broken toward the lowest seed — so the outcome never depends on how
	// many workers ran or which finished first. 0 or 1 keeps the
	// single-seed path bit-for-bit identical to a plain Place call.
	Seeds int
}

// Place produces a legal placement minimizing estimated wirelength via
// greedy seeding followed by simulated annealing. Designs that exceed the
// fabric's tile budget fail with fault.ErrCapacity; cancellation of ctx
// aborts the annealing loop with fault.ErrCanceled.
func Place(ctx context.Context, m *rewrite.Mapped, f *Fabric, opt PlaceOptions) (*Placement, error) {
	if opt.Seeds > 1 {
		return placePortfolio(ctx, m, f, opt)
	}
	p, err := placeOne(ctx, m, f, opt.Seed, opt.Moves)
	if err != nil {
		return nil, err
	}
	obs.Observe(ctx, "place.wirelength", int64(p.wirelength()))
	return p, nil
}

// placePortfolio anneals opt.Seeds placements from consecutive seeds and
// keeps the best. Every candidate is deterministic in isolation, so the
// min-wirelength/lowest-seed selection rule makes the portfolio as a
// whole deterministic regardless of scheduling.
func placePortfolio(ctx context.Context, m *rewrite.Mapped, f *Fabric, opt PlaceOptions) (*Placement, error) {
	k := opt.Seeds
	par := min(runtime.GOMAXPROCS(0), k)
	placements := make([]*Placement, k)
	errs := make([]error, k)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			placements[i], errs[i] = placeOne(ctx, m, f, opt.Seed+int64(i), opt.Moves)
		}(i)
	}
	wg.Wait()
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	best, bestWL := -1, 0
	for i, p := range placements {
		if errs[i] != nil {
			continue
		}
		if wl := p.wirelength(); best < 0 || wl < bestWL {
			best, bestWL = i, wl
		}
	}
	if best < 0 {
		// Placement failures (capacity) are seed-independent, so the
		// first seed's error speaks for the whole portfolio.
		return nil, errs[0]
	}
	obs.Add(ctx, "place.portfolio.anneals", int64(k))
	obs.Observe(ctx, "place.portfolio.pick", int64(best))
	obs.Observe(ctx, "place.wirelength", int64(bestWL))
	return placements[best], nil
}

// placeOne is the single-seed place flow: greedy seed, then anneal.
func placeOne(ctx context.Context, m *rewrite.Mapped, f *Fabric, seed int64, moves int) (*Placement, error) {
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	p := &Placement{Fabric: f, Mapped: m, Loc: make([]Coord, len(m.Nodes))}

	// Partition nodes by resource class.
	var peNodes, rfNodes, memNodes, ioNodes, regNodes []int
	for i := range m.Nodes {
		switch m.Nodes[i].Kind {
		case rewrite.KindPE:
			peNodes = append(peNodes, i)
		case rewrite.KindRegFile:
			rfNodes = append(rfNodes, i)
		case rewrite.KindMem, rewrite.KindRom:
			memNodes = append(memNodes, i)
		case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
			ioNodes = append(ioNodes, i)
		case rewrite.KindReg:
			regNodes = append(regNodes, i)
		}
	}
	peSlots := f.PETiles()
	memSlots := f.MemTiles()
	ioSlots := f.IOSites()
	if len(peNodes) > len(peSlots) {
		return nil, fault.Capacityf("cgra: %d PEs exceed %d PE tiles", len(peNodes), len(peSlots))
	}
	if len(rfNodes) > len(peSlots) {
		return nil, fault.Capacityf("cgra: %d register files exceed %d PE tiles", len(rfNodes), len(peSlots))
	}
	if len(memNodes) > len(memSlots) {
		return nil, fault.Capacityf("cgra: %d memories exceed %d memory tiles", len(memNodes), len(memSlots))
	}
	if len(ioNodes) > len(ioSlots) {
		return nil, fault.Capacityf("cgra: %d IOs exceed %d IO sites", len(ioNodes), len(ioSlots))
	}

	// Greedy seed: BFS order of the mapped graph onto slot lists sorted
	// by distance from the grid center, so connected nodes start close.
	center := Coord{f.W / 2, f.H / 2}
	sortByCenter := func(cs []Coord) []Coord {
		out := append([]Coord(nil), cs...)
		sort.Slice(out, func(i, j int) bool {
			di, dj := manhattan(out[i], center), manhattan(out[j], center)
			if di != dj {
				return di < dj
			}
			if out[i].Y != out[j].Y {
				return out[i].Y < out[j].Y
			}
			return out[i].X < out[j].X
		})
		return out
	}
	peOrder := sortByCenter(peSlots)
	memOrder := sortByCenter(memSlots)
	ioOrder := sortByCenter(ioSlots)

	topo := m.TopoOrder()
	pi, mi, ii := 0, 0, 0
	rfOrder := append([]Coord(nil), peOrder...)
	ri := 0
	for _, i := range topo {
		switch m.Nodes[i].Kind {
		case rewrite.KindPE:
			p.Loc[i] = peOrder[pi]
			pi++
		case rewrite.KindRegFile:
			p.Loc[i] = rfOrder[ri]
			ri++
		case rewrite.KindMem, rewrite.KindRom:
			p.Loc[i] = memOrder[mi]
			mi++
		case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
			p.Loc[i] = ioOrder[ii]
			ii++
		case rewrite.KindReg:
			// Registers float: seed at the grid center; annealing and
			// routing pull them onto sensible tiles.
			p.Loc[i] = Coord{rng.Intn(f.W), rng.Intn(f.H)}
		}
	}

	if err := p.anneal(ctx, rng, moves, [5][]int{peNodes, rfNodes, memNodes, ioNodes, regNodes}); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// nets enumerates (producer, consumer) pairs, cached on the Placement
// after the first call.
func (p *Placement) nets() [][2]int {
	if p.netList == nil {
		ns := make([][2]int, 0, len(p.Mapped.Nodes))
		for i := range p.Mapped.Nodes {
			for _, pr := range p.Mapped.Nodes[i].Producers() {
				ns = append(ns, [2]int{pr, i})
			}
		}
		p.netList = ns
	}
	return p.netList
}

func (p *Placement) wirelength() int {
	total := 0
	for _, n := range p.nets() {
		total += manhattan(p.Loc[n[0]], p.Loc[n[1]])
	}
	return total
}

// annealState is the flattened, preallocated working set of one
// annealing run: the per-node net lists in CSR form, class and free-slot
// tables, and an epoch-stamped scratch slice that replaces the
// per-proposal map — a stamp mismatch means "not seen this proposal", so
// "clearing" the set between proposals is a single counter increment and
// a proposal allocates nothing.
type annealState struct {
	p          *Placement
	netU, netV []int32 // per net id, endpoint nodes
	netOff     []int32 // CSR offsets: node i's net ids are netIDs[netOff[i]:netOff[i+1]]
	netIDs     []int32
	classes    [5][]int
	classOf    []int8
	movable    []int
	free       [][]Coord

	// locX/locY mirror p.Loc as flat int32 planes: the delta loops are
	// pure loads over them, and accepted proposals write both mirrors
	// and p.Loc.
	locX, locY []int32

	seen  []int32 // per net id, epoch stamp
	epoch int32

	t, cool float64
}

// newAnnealState builds the flat tables once per Place call. Returns nil
// when there is nothing to anneal (fewer than two movable nodes), before
// any RNG is consumed — matching the historical early return.
func newAnnealState(p *Placement, classes [5][]int, moves int) *annealState {
	var movable []int
	for _, cl := range classes {
		movable = append(movable, cl...)
	}
	if len(movable) < 2 {
		return nil
	}
	nets := p.nets()
	n := len(p.Mapped.Nodes)
	// CSR over (node -> incident net ids); a self-loop net is listed
	// once, exactly as the old per-node append built it.
	netOff := make([]int32, n+1)
	for _, nt := range nets {
		netOff[nt[0]+1]++
		if nt[1] != nt[0] {
			netOff[nt[1]+1]++
		}
	}
	for i := 0; i < n; i++ {
		netOff[i+1] += netOff[i]
	}
	netIDs := make([]int32, netOff[n])
	fill := make([]int32, n)
	for ni, nt := range nets {
		u, v := nt[0], nt[1]
		netIDs[netOff[u]+fill[u]] = int32(ni)
		fill[u]++
		if v != u {
			netIDs[netOff[v]+fill[v]] = int32(ni)
			fill[v]++
		}
	}
	classOf := make([]int8, n)
	for ci, cl := range classes {
		for _, nd := range cl {
			classOf[nd] = int8(ci)
		}
	}
	netU := make([]int32, len(nets))
	netV := make([]int32, len(nets))
	for ni, nt := range nets {
		netU[ni], netV[ni] = int32(nt[0]), int32(nt[1])
	}
	locX := make([]int32, n)
	locY := make([]int32, n)
	for i, c := range p.Loc {
		locX[i], locY[i] = int32(c.X), int32(c.Y)
	}
	t := float64(p.Fabric.W + p.Fabric.H)
	return &annealState{
		p:       p,
		netU:    netU,
		netV:    netV,
		netOff:  netOff,
		netIDs:  netIDs,
		classes: classes,
		classOf: classOf,
		movable: movable,
		free:    p.freeSlotsByClass(),
		locX:    locX,
		locY:    locY,
		seen:    make([]int32, len(nets)),
		t:       t,
		cool:    math.Pow(0.01/t, 1/float64(moves)),
	}
}

// manhattan32 is manhattan on the flat coordinate planes.
func manhattan32(ax, ay, bx, by int32) int32 {
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// anneal refines the placement with class-preserving swap/move proposals.
// It polls ctx periodically (every 4096 moves) so a long anneal cannot
// outlive a cancelled evaluation; the deterministic proposal sequence is
// unaffected when ctx stays live.
func (p *Placement) anneal(ctx context.Context, rng *rand.Rand, moves int, classes [5][]int) error {
	if moves <= 0 {
		moves = 200 * len(p.Mapped.Nodes)
		if moves > 400_000 {
			moves = 400_000
		}
	}
	s := newAnnealState(p, classes, moves)
	if s == nil {
		return nil
	}
	for step := 0; step < moves; step++ {
		if step&4095 == 0 {
			if err := fault.Canceled(ctx); err != nil {
				return err
			}
		}
		s.step(rng)
	}
	return nil
}

// step proposes and (maybe) applies one move or swap. The RNG draw
// sequence, acceptance math, and free-slot bookkeeping reproduce the
// pre-flattening annealer exactly, so placements are byte-identical per
// seed; the cost of a proposal is computed as an incremental delta over
// the touched nets without mutating the placement until acceptance.
func (s *annealState) step(rng *rand.Rand) {
	p := s.p
	a := s.movable[rng.Intn(len(s.movable))]
	ca := s.classOf[a]
	// Either swap with a same-class node or move to a free slot.
	if len(s.free[ca]) > 0 && rng.Intn(2) == 0 {
		si := rng.Intn(len(s.free[ca]))
		target := s.free[ca][si]
		if s.acceptDelta(s.moveDelta(a, int32(target.X), int32(target.Y)), rng) {
			old := p.Loc[a]
			p.Loc[a] = target
			s.locX[a], s.locY[a] = int32(target.X), int32(target.Y)
			s.free[ca][si] = old
		}
	} else {
		b := sameClassPeer(rng, s.classes[ca], a)
		if b < 0 {
			return // no cooling on a failed pairing, matching the old control flow
		}
		if s.acceptDelta(s.swapDelta(a, b), rng) {
			p.Loc[a], p.Loc[b] = p.Loc[b], p.Loc[a]
			s.locX[a], s.locX[b] = s.locX[b], s.locX[a]
			s.locY[a], s.locY[b] = s.locY[b], s.locY[a]
		}
	}
	s.t *= s.cool
}

// moveDelta is the wirelength change from relocating node a to (tx,ty).
// a's incident net ids are distinct, so no dedup pass is needed.
func (s *annealState) moveDelta(a int, tx, ty int32) int {
	a32 := int32(a)
	delta := int32(0)
	for _, ni := range s.netIDs[s.netOff[a]:s.netOff[a+1]] {
		u, v := s.netU[ni], s.netV[ni]
		ux, uy := s.locX[u], s.locY[u]
		vx, vy := s.locX[v], s.locY[v]
		old := manhattan32(ux, uy, vx, vy)
		if u == a32 {
			ux, uy = tx, ty
		}
		if v == a32 {
			vx, vy = tx, ty
		}
		delta += manhattan32(ux, uy, vx, vy) - old
	}
	return int(delta)
}

// swapDelta is the wirelength change from exchanging the locations of a
// and b. Nets incident to both are epoch-deduped so they count once,
// like the old map-based costAround(a, b).
func (s *annealState) swapDelta(a, b int) int {
	a32, b32 := int32(a), int32(b)
	ax, ay := s.locX[a], s.locY[a]
	bx, by := s.locX[b], s.locY[b]
	s.epoch++
	ep := s.epoch
	delta := int32(0)
	for pass := 0; pass < 2; pass++ {
		nd := a
		if pass == 1 {
			nd = b
		}
		for _, ni := range s.netIDs[s.netOff[nd]:s.netOff[nd+1]] {
			if s.seen[ni] == ep {
				continue
			}
			s.seen[ni] = ep
			u, v := s.netU[ni], s.netV[ni]
			ux, uy := s.locX[u], s.locY[u]
			vx, vy := s.locX[v], s.locY[v]
			old := manhattan32(ux, uy, vx, vy)
			if u == a32 {
				ux, uy = bx, by
			} else if u == b32 {
				ux, uy = ax, ay
			}
			if v == a32 {
				vx, vy = bx, by
			} else if v == b32 {
				vx, vy = ax, ay
			}
			delta += manhattan32(ux, uy, vx, vy) - old
		}
	}
	return int(delta)
}

// acceptDelta is the Metropolis criterion on an incremental cost delta.
// For integer deltas float64(before-after) == -float64(delta) exactly,
// and the Float64 draw happens iff delta > 0 — both identical to the old
// accepted(before, after) on full costs.
//
// The transcendental is bracketed before it is computed: for x <= 0,
// 1+x <= exp(x) <= 1/(1-x) with slack of order x^2/2. Here |x| >=
// 1/(W+H) (delta is a positive integer, t starts at W+H and only
// shrinks), so the slack dwarfs float rounding by >10 orders of
// magnitude and the cheap bounds decide u < exp(x) exactly; math.Exp
// runs only for draws inside the thin undecided band.
func (s *annealState) acceptDelta(delta int, rng *rand.Rand) bool {
	if delta <= 0 {
		return true
	}
	u := rng.Float64()
	x := -float64(delta) / s.t
	if u <= 1+x {
		return true
	}
	if u*(1-x) >= 1 {
		return false
	}
	return u < math.Exp(x)
}

func sameClassPeer(rng *rand.Rand, class []int, a int) int {
	if len(class) < 2 {
		return -1
	}
	for tries := 0; tries < 8; tries++ {
		b := class[rng.Intn(len(class))]
		if b != a {
			return b
		}
	}
	return -1
}

// freeSlotsByClass computes unoccupied slots per resource class
// (PE, RF, Mem, IO, Reg).
func (p *Placement) freeSlotsByClass() [][]Coord {
	occupied := map[Coord]map[int]bool{} // coord -> class set
	classAt := func(i int) int {
		switch p.Mapped.Nodes[i].Kind {
		case rewrite.KindPE:
			return 0
		case rewrite.KindRegFile:
			return 1
		case rewrite.KindMem, rewrite.KindRom:
			return 2
		case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
			return 3
		default:
			return 4
		}
	}
	for i := range p.Mapped.Nodes {
		c := p.Loc[i]
		if occupied[c] == nil {
			occupied[c] = map[int]bool{}
		}
		occupied[c][classAt(i)] = true
	}
	free := make([][]Coord, 5)
	for _, c := range p.Fabric.PETiles() {
		if !occupied[c][0] {
			free[0] = append(free[0], c)
		}
		if !occupied[c][1] {
			free[1] = append(free[1], c)
		}
		free[4] = append(free[4], c)
	}
	for _, c := range p.Fabric.MemTiles() {
		if !occupied[c][2] {
			free[2] = append(free[2], c)
		}
		free[4] = append(free[4], c)
	}
	for _, c := range p.Fabric.IOSites() {
		if !occupied[c][3] {
			free[3] = append(free[3], c)
		}
	}
	return free
}

// Validate checks resource legality: kinds on compatible tiles and no
// double occupancy within a resource class.
func (p *Placement) Validate() error {
	peAt := map[Coord]int{}
	rfAt := map[Coord]int{}
	memAt := map[Coord]int{}
	ioAt := map[Coord]int{}
	for i := range p.Mapped.Nodes {
		c := p.Loc[i]
		kind := p.Mapped.Nodes[i].Kind
		switch kind {
		case rewrite.KindPE, rewrite.KindRegFile:
			if p.Fabric.KindAt(c) != TilePE {
				return fmt.Errorf("cgra: node %d (%s) on %s tile %s", i, kind, p.Fabric.KindAt(c), c)
			}
			reg := peAt
			if kind == rewrite.KindRegFile {
				reg = rfAt
			}
			if prev, ok := reg[c]; ok {
				return fmt.Errorf("cgra: nodes %d and %d share tile %s", prev, i, c)
			}
			reg[c] = i
		case rewrite.KindMem, rewrite.KindRom:
			if p.Fabric.KindAt(c) != TileMem {
				return fmt.Errorf("cgra: mem node %d on %s tile %s", i, p.Fabric.KindAt(c), c)
			}
			if prev, ok := memAt[c]; ok {
				return fmt.Errorf("cgra: mems %d and %d share tile %s", prev, i, c)
			}
			memAt[c] = i
		case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
			if p.Fabric.KindAt(c) != TileIO {
				return fmt.Errorf("cgra: IO node %d on %s tile %s", i, p.Fabric.KindAt(c), c)
			}
			if prev, ok := ioAt[c]; ok {
				return fmt.Errorf("cgra: IOs %d and %d share site %s", prev, i, c)
			}
			ioAt[c] = i
		case rewrite.KindReg:
			if !p.Fabric.InGrid(c) {
				return fmt.Errorf("cgra: reg node %d off-grid at %s", i, c)
			}
		}
	}
	return nil
}
