package kdtree

import (
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/obs"
)

// UpdateResult reports what one Rebalance pass did.
type UpdateResult struct {
	// Merged is the number of delinquent (under-occupied) leaves absorbed
	// into a parent-subtree rebuild.
	Merged int
	// Split is the number of oversized leaves replaced by new subtrees.
	Split int
	// NodesRebuilt is the number of tree nodes created by the pass.
	NodesRebuilt int
	// PointsResorted is the number of points that took part in a local
	// sort/partition — the quantity that makes incremental update cheap
	// relative to a from-scratch rebuild (§4.4: "far fewer points than N").
	PointsResorted int
}

// leafAt is a leaf node paired with its depth, the unit the rebalance
// pass collects and orders.
type leafAt struct {
	node  int32
	depth int
}

// rebScratch is the rebalance pass's reusable workspace, owned by the
// tree (mutations are single-caller by contract): the freed-node set,
// the leaf-walk stack, the collected delinquent/oversized lists, and
// the parallel pass's task and pending-decision lists. Reuse is what
// keeps steady-state UpdateFrame allocation-free.
type rebScratch struct {
	freed      freedSet
	stack      []leafItem
	delinquent []leafAt
	oversized  []int32
	tasks      []rebTask
	pend       []rebPending
}

// rebTask is one planned subtree rebuild of the phased parallel
// rebalance: the kept root, the points collected out of its subtree,
// the node/bucket slots the collection freed (recorded here and pushed
// onto the tree's free lists only at commit, so the free-list LIFO
// replays in exactly the serial interleaving), and the staged shape.
type rebTask struct {
	target int32
	axis   geom.Axis

	pts  []geom.Point
	idxs []int32

	freedNodes   []int32
	freedBuckets []int32

	nodes []stagedNode
	root  int32
}

// rebPending is one delinquent-list decision of a merge round: either a
// planned task (task >= 0) or a predicted skip on a freed slot
// (task == -1) that must be re-checked at commit time — an earlier
// commit may have resurrected the slot as a new delinquent leaf, which
// the serial pass would have rebuilt at exactly this list position.
type rebPending struct {
	node int32
	task int32
}

// UpdateFrame re-populates the tree with a new frame in incremental-update
// mode (§4.4): buckets are cleared, the new points are placed using the
// existing splits, and the tree is rebalanced so every bucket stays within
// [lower, upper]. The returned UpdateResult describes the rebalancing work.
//
// Passing lower <= 0 and upper <= 0 derives the paper's bounds of half and
// twice the configured bucket size B_N. (Anchoring on B_N rather than the
// current mean keeps the operating point stable: bounds tied to the mean
// ratchet — every merge raises the mean, which widens the bounds, which
// triggers more merges on the next frame.)
func (t *Tree) UpdateFrame(points []geom.Point, lower, upper int) UpdateResult {
	t.lastIngest = IngestTiming{}
	t.ResetBuckets()
	t.placeInto(points)
	if lower <= 0 {
		lower = t.cfg.BucketSize / 2
	}
	if upper <= 0 {
		upper = t.cfg.BucketSize * 2
	}
	return t.rebalance(lower, upper)
}

// Rebalance applies the paper's two incremental-update steps in order:
// merging (absorb under-occupied leaves into a parent-subtree rebuild,
// shallowest leaves first) and splitting (rebuild oversized leaves into
// subtrees). Bounds must satisfy 0 < lower < upper.
//
// With Config.Parallelism != 1 the independent subtree rebuilds of each
// step run phased (plan → stage on workers → commit in plan order,
// ingest.go); node and bucket numbering, free lists, and the arena come
// out byte-identical to the serial pass for any worker count.
func (t *Tree) Rebalance(lower, upper int) UpdateResult {
	t.lastIngest = IngestTiming{}
	return t.rebalance(lower, upper)
}

// rebalance dispatches to the serial or phased pass and records timing.
func (t *Tree) rebalance(lower, upper int) UpdateResult {
	if lower <= 0 || upper <= lower {
		panic("kdtree: Rebalance requires 0 < lower < upper")
	}
	sw := obs.StartStopwatch()
	workers := t.ingestWorkers()
	var res UpdateResult
	freed := &t.reb.freed
	freed.reset(len(t.nodes))
	if workers <= 1 {
		t.rebalanceSerial(lower, upper, freed, &res)
	} else {
		t.rebalanceParallel(lower, upper, workers, freed, &res)
	}
	// Rebuilds retire the merged/split leaves' old arena spans; repack the
	// arena once the retired slots dominate ("compaction on retire").
	t.maybeCompact()
	t.lastIngest.RebalanceSeconds = sw.Seconds()
	t.lastIngest.Workers = workers
	return res
}

// collectDelinquent gathers the under-occupied leaves (depth > 0)
// shallowest-first into the pass's reusable scratch, as the paper
// specifies ("starting with the leaf nodes of the least depth").
func (t *Tree) collectDelinquent(lower int) []leafAt {
	t.reb.delinquent = t.reb.delinquent[:0]
	t.reb.stack = t.walkLeavesStack(t.reb.stack, func(leaf int32, depth int) {
		if t.buckets[t.nodes[leaf].Bucket].Len() < lower && depth > 0 {
			t.reb.delinquent = append(t.reb.delinquent, leafAt{leaf, depth})
		}
	})
	del := t.reb.delinquent
	for i := 1; i < len(del); i++ {
		for j := i; j > 0 && del[j].depth < del[j-1].depth; j-- {
			del[j], del[j-1] = del[j-1], del[j]
		}
	}
	return del
}

// collectOversized gathers the leaves holding more than upper points.
func (t *Tree) collectOversized(upper int) []int32 {
	t.reb.oversized = t.reb.oversized[:0]
	t.reb.stack = t.walkLeavesStack(t.reb.stack, func(leaf int32, _ int) {
		if t.buckets[t.nodes[leaf].Bucket].Len() > upper {
			t.reb.oversized = append(t.reb.oversized, leaf)
		}
	})
	return t.reb.oversized
}

// rebalanceSerial is the reference pass: one rebuild at a time, exactly
// in list order.
//
// Merging collects delinquent leaves shallowest-first; rebuilding a
// parent subtree may consume other delinquent leaves, so each is
// re-validated before processing. One pass collapses a delinquent
// region by one level, so it iterates to a fixpoint: each round a
// still-delinquent leaf's merge target is strictly shallower, so the
// loop terminates within the tree depth. Splitting then replaces
// oversized leaves (including any produced by merging that the rebuild
// target could not subdivide) with subtrees.
func (t *Tree) rebalanceSerial(lower, upper int, freed *freedSet, res *UpdateResult) {
	for round := 0; ; round++ {
		del := t.collectDelinquent(lower)
		if len(del) == 0 || round > 64 {
			break
		}
		merged := 0
		for _, d := range del {
			if freed.has(d.node) {
				continue
			}
			nd := t.nodes[d.node]
			if !nd.Leaf() || nd.Parent == nilIdx || t.buckets[nd.Bucket].Len() >= lower {
				continue // already fixed by an earlier rebuild
			}
			merged++
			t.rebuildAt(nd.Parent, upper, freed, res)
		}
		res.Merged += merged
		if merged == 0 {
			break
		}
	}
	for _, leaf := range t.collectOversized(upper) {
		res.Split++
		t.rebuildAt(leaf, upper, freed, res)
	}
}

// rebalanceParallel phases each step of the serial pass: plan the
// admitted rebuilds in list order (running every collection the serial
// pass would run, with free-list pushes deferred into the task), stage
// each task's subtree shape on workers (chooseSplit over task-private
// point buffers — no shared state), then commit in plan order — each
// commit first replays its task's frees and then allocates through
// t.node()/t.bucket(), reproducing the serial pass's free-list
// interleaving and therefore its exact node/bucket numbering.
//
// Admission decisions made at plan time against pre-commit state are
// provably identical to the serial pass's for every non-freed leaf
// (commits only mutate slots a prior collection freed); the one
// divergence — a slot freed at plan time that an earlier commit
// resurrects into a new delinquent leaf the serial pass would rebuild —
// is re-checked at its original list position during commit and rebuilt
// inline (its subtree lies inside the resurrecting task's committed
// region, disjoint from every remaining staged task).
func (t *Tree) rebalanceParallel(lower, upper, workers int, freed *freedSet, res *UpdateResult) {
	tasks := t.reb.tasks[:0]
	pend := t.reb.pend[:0]
	for round := 0; ; round++ {
		del := t.collectDelinquent(lower)
		if len(del) == 0 || round > 64 {
			break
		}
		merged := 0
		tasks = tasks[:0]
		pend = pend[:0]
		for _, d := range del {
			if freed.has(d.node) {
				pend = append(pend, rebPending{node: d.node, task: -1})
				continue
			}
			nd := t.nodes[d.node]
			if !nd.Leaf() || nd.Parent == nilIdx || t.buckets[nd.Bucket].Len() >= lower {
				continue // already fixed by an earlier rebuild
			}
			merged++
			pend = append(pend, rebPending{node: d.node, task: int32(len(tasks))})
			tasks = t.appendCollectTask(tasks, nd.Parent, freed, res)
		}
		t.stageRebTasks(tasks, upper, workers)
		for _, p := range pend {
			if p.task >= 0 {
				t.commitRebuild(&tasks[p.task], freed, res)
				continue
			}
			if freed.has(p.node) {
				continue
			}
			nd := t.nodes[p.node]
			if !nd.Leaf() || nd.Parent == nilIdx || t.buckets[nd.Bucket].Len() >= lower {
				continue
			}
			// Resurrected delinquent leaf: rebuild inline, as the serial
			// pass would at this position.
			merged++
			t.rebuildAt(nd.Parent, upper, freed, res)
		}
		res.Merged += merged
		if merged == 0 {
			break
		}
	}
	// Splitting has no admission guards, so it is a straight
	// plan/stage/commit fan-out over the oversized leaves.
	tasks = tasks[:0]
	for _, leaf := range t.collectOversized(upper) {
		res.Split++
		tasks = t.appendCollectTask(tasks, leaf, freed, res)
	}
	t.stageRebTasks(tasks, upper, workers)
	for i := range tasks {
		t.commitRebuild(&tasks[i], freed, res)
	}
	// Drop the tasks' buffer references (they hold point copies from the
	// largest round) while keeping the headers for reuse.
	tasks = tasks[:cap(tasks)]
	for i := range tasks {
		tasks[i] = rebTask{}
	}
	t.reb.tasks = tasks[:0]
	t.reb.pend = pend[:0]
}

// appendCollectTask plans one subtree rebuild: it collects the subtree
// below idx exactly as the serial pass would (points copied out, holes
// accounted, slots marked freed) but defers the free-list pushes into
// the task for replay at commit time.
func (t *Tree) appendCollectTask(tasks []rebTask, idx int32, freed *freedSet, res *UpdateResult) []rebTask {
	tasks = append(tasks, rebTask{target: idx})
	tk := &tasks[len(tasks)-1]
	t.collectDeferred(idx, tk, freed, true)
	res.PointsResorted += len(tk.pts)
	tk.axis = geom.Axis(t.depthOf(idx) % geom.Dims)
	return tasks
}

// collectDeferred is collectSubtree with the free-list pushes recorded
// into the task instead of applied: every other side effect — the point
// copy-out, hole accounting, bucket clearing, link clearing on the kept
// root, freed marks — happens eagerly and in the serial DFS order.
func (t *Tree) collectDeferred(idx int32, tk *rebTask, freed *freedSet, keepRoot bool) {
	nd := t.nodes[idx]
	if nd.Leaf() {
		tk.pts = t.AppendBucketPoints(tk.pts, nd.Bucket)
		tk.idxs = append(tk.idxs, t.BucketIndices(nd.Bucket)...)
		t.arenaHole += int(t.buckets[nd.Bucket].cap)
		t.buckets[nd.Bucket] = Bucket{}
		t.liveBuckets--
		tk.freedBuckets = append(tk.freedBuckets, nd.Bucket)
	} else {
		t.collectDeferred(nd.Left, tk, freed, false)
		t.collectDeferred(nd.Right, tk, freed, false)
	}
	if keepRoot {
		t.nodes[idx].Left = nilIdx
		t.nodes[idx].Right = nilIdx
		t.nodes[idx].Bucket = nilIdx
		return
	}
	freed.mark(idx)
	tk.freedNodes = append(tk.freedNodes, idx)
}

// stageRebTasks computes each task's subtree shape on up to `workers`
// goroutines. Staging reads and sorts only task-owned buffers.
func (t *Tree) stageRebTasks(tasks []rebTask, target, workers int) {
	runTasks(workers, len(tasks), func(i int) {
		tk := &tasks[i]
		tk.nodes = tk.nodes[:0]
		tk.root = stageRebuild(&tk.nodes, tk.pts, tk.idxs, 0, int32(len(tk.pts)), tk.axis, target)
	})
}

// stageRebuild mirrors rebuildNode's shape decisions into a staged node
// array: the same chooseSplit calls over the same point storage, with
// each staged leaf recording its [lo,hi) range — the in-place median
// partition leaves every subtree's points contiguous, so ranges are all
// a leaf needs.
func stageRebuild(nodes *[]stagedNode, pts []geom.Point, idxs []int32, lo, hi int32, axis geom.Axis, target int) int32 {
	si := int32(len(*nodes))
	*nodes = append(*nodes, stagedNode{})
	if int(hi-lo) <= target {
		(*nodes)[si] = stagedNode{leaf: true, lo: lo, hi: hi}
		return si
	}
	splitAxis, threshold, loSet, _, ok := chooseSplit(pointSet{pts: pts[lo:hi], idxs: idxs[lo:hi]}, axis)
	if !ok {
		(*nodes)[si] = stagedNode{leaf: true, lo: lo, hi: hi} // degenerate: all points identical
		return si
	}
	mid := lo + int32(len(loSet.pts))
	l := stageRebuild(nodes, pts, idxs, lo, mid, splitAxis.Next(), target)
	r := stageRebuild(nodes, pts, idxs, mid, hi, splitAxis.Next(), target)
	(*nodes)[si] = stagedNode{axis: splitAxis, threshold: threshold, left: l, right: r}
	return si
}

// commitRebuild applies one staged task: replay the collection's frees
// in order, then emit the staged subtree through the allocators — the
// exact [frees][allocations] bracket the serial rebuildAt produces.
func (t *Tree) commitRebuild(tk *rebTask, freed *freedSet, res *UpdateResult) {
	t.freeNodes = append(t.freeNodes, tk.freedNodes...)
	t.freeBuckets = append(t.freeBuckets, tk.freedBuckets...)
	t.commitStaged(tk, tk.root, tk.target, freed, res)
}

// commitStaged emits staged node si into tree node idx, mirroring
// rebuildNode's allocation order (bucket at each leaf; left node, right
// node, then left subtree, right subtree at each internal node).
func (t *Tree) commitStaged(tk *rebTask, si, idx int32, freed *freedSet, res *UpdateResult) {
	sn := tk.nodes[si]
	if sn.leaf {
		t.makeLeaf(idx, tk.pts[sn.lo:sn.hi], tk.idxs[sn.lo:sn.hi])
		return
	}
	left := t.node()
	right := t.node()
	freed.unmark(left) // slots may be recycled from this very pass
	freed.unmark(right)
	res.NodesRebuilt += 2
	t.nodes[idx].Axis = sn.axis
	t.nodes[idx].Threshold = sn.threshold
	t.nodes[idx].Left = left
	t.nodes[idx].Right = right
	t.nodes[left].Parent = idx
	t.nodes[right].Parent = idx
	t.commitStaged(tk, sn.left, left, freed, res)
	t.commitStaged(tk, sn.right, right, freed, res)
}

// rebuildAt replaces the subtree rooted at idx (which keeps its node slot
// and parent link) with a fresh subtree over all points currently stored
// beneath it, splitting any group larger than target.
func (t *Tree) rebuildAt(idx int32, target int, freed *freedSet, res *UpdateResult) {
	var pts []geom.Point
	var idxs []int32
	t.collectSubtree(idx, &pts, &idxs, freed, true)
	res.PointsResorted += len(pts)
	axis := t.depthOf(idx) % geom.Dims
	t.rebuildNode(idx, pointSet{pts: pts, idxs: idxs}, geom.Axis(axis), target, freed, res)
}

// collectSubtree gathers all points below idx (copied out of the arena,
// so later span retirement cannot clobber them), freeing buckets and child
// nodes. When keepRoot is true the node at idx itself is retained (links
// cleared) so it can be rebuilt in place.
func (t *Tree) collectSubtree(idx int32, pts *[]geom.Point, idxs *[]int32, freed *freedSet, keepRoot bool) {
	nd := t.nodes[idx]
	if nd.Leaf() {
		*pts = t.AppendBucketPoints(*pts, nd.Bucket)
		*idxs = append(*idxs, t.BucketIndices(nd.Bucket)...)
		t.freeBucket(nd.Bucket)
	} else {
		t.collectSubtree(nd.Left, pts, idxs, freed, false)
		t.collectSubtree(nd.Right, pts, idxs, freed, false)
	}
	if keepRoot {
		t.nodes[idx].Left = nilIdx
		t.nodes[idx].Right = nilIdx
		t.nodes[idx].Bucket = nilIdx
		return
	}
	freed.mark(idx)
	t.freeNode(idx)
}

// rebuildNode builds a subtree in place at idx over the given points,
// splitting groups larger than target at the median along cycling axes
// (the same sorter/partition datapath TBuild already has, per §4.4).
func (t *Tree) rebuildNode(idx int32, s pointSet, axis geom.Axis, target int, freed *freedSet, res *UpdateResult) {
	if len(s.pts) <= target {
		t.makeLeaf(idx, s.pts, s.idxs)
		return
	}
	splitAxis, threshold, lo, hi, ok := chooseSplit(s, axis)
	if !ok {
		t.makeLeaf(idx, s.pts, s.idxs) // degenerate: all points identical
		return
	}
	left := t.node()
	right := t.node()
	freed.unmark(left) // slots may be recycled from this very pass
	freed.unmark(right)
	res.NodesRebuilt += 2
	t.nodes[idx].Axis = splitAxis
	t.nodes[idx].Threshold = threshold
	t.nodes[idx].Left = left
	t.nodes[idx].Right = right
	t.nodes[left].Parent = idx
	t.nodes[right].Parent = idx
	t.rebuildNode(left, lo, splitAxis.Next(), target, freed, res)
	t.rebuildNode(right, hi, splitAxis.Next(), target, freed, res)
}

// makeLeaf gives node idx a new bucket holding exactly the given points,
// in order, in a fresh span at the arena tail.
func (t *Tree) makeLeaf(idx int32, pts []geom.Point, idxs []int32) {
	b := t.bucket(idx)
	t.nodes[idx].Bucket = b
	n := int32(len(pts))
	off := t.arenaReserve(n)
	for i, p := range pts {
		t.setPoint(off+int32(i), p, idxs[i])
	}
	bk := &t.buckets[b]
	bk.off, bk.n, bk.cap = off, n, n
}

// depthOf returns the depth of node idx by following parent links.
func (t *Tree) depthOf(idx int32) int {
	d := 0
	for t.nodes[idx].Parent != nilIdx {
		idx = t.nodes[idx].Parent
		d++
	}
	return d
}
