//! CART regression tree — ML18, and the weak learner of the ensemble
//! models.

use afp_store::bytes::put_f64;
use afp_store::ByteReader;

use crate::codec::{self, ModelState};
use crate::{check_xy, Matrix, MlError, Regressor};

/// A row index in the growth buffers: half the bytes of `usize` for
/// the partitions to move.
type Row = u32;

/// Tree growth configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples per leaf (0 acts as 1).
    pub min_samples_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
        }
    }
}

/// One node of a grown tree, 24 bytes. A split sends a row left when
/// `row[feature] <= value` and right otherwise, so a NaN feature goes
/// right. A leaf holds its prediction in `value` and both its children
/// are its own slot: a lockstep walk of the tree's depth steps ends on a
/// leaf whatever the row, with no branch on the node's kind.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Node {
    /// Split threshold, or the leaf's prediction.
    value: f64,
    /// Split feature (0 on a leaf, where both children agree).
    feature: u32,
    children: [u32; 2],
}

impl Node {
    fn leaf(slot: usize, value: f64) -> Node {
        let slot = slot as u32;
        Node {
            value,
            feature: 0,
            children: [slot, slot],
        }
    }

    fn is_leaf(&self, slot: usize) -> bool {
        self.children[0] as usize == slot
    }
}

/// Rows a batch prediction walks through a tree in lockstep.
const LANES: usize = 8;

/// CART regression tree (variance-reduction splits) — ML18.
///
/// # Example
///
/// ```
/// use afp_ml::tree::{DecisionTree, TreeConfig};
/// use afp_ml::{Matrix, Regressor};
///
/// let x = Matrix::from_rows(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
/// let y = [1.0, 1.0, 9.0, 9.0];
/// let mut t = DecisionTree::new(TreeConfig::default());
/// t.fit(&x, &y)?;
/// assert_eq!(t.predict_row(&[0.5]), 1.0);
/// assert_eq!(t.predict_row(&[10.5]), 9.0);
/// # Ok::<(), afp_ml::MlError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DecisionTree {
    config: TreeConfig,
    /// Nodes in growth order: the root first, every child after its
    /// parent.
    nodes: Vec<Node>,
    /// Splits on the longest root-to-leaf path.
    depth: u32,
    /// Feature subset to consider per split (None = all); used by random
    /// forests. Indices are sampled per split with this many candidates.
    pub(crate) features_per_split: Option<usize>,
    pub(crate) seed: u64,
}

impl DecisionTree {
    /// New tree with the given growth limits.
    pub fn new(config: TreeConfig) -> DecisionTree {
        DecisionTree {
            config,
            nodes: Vec::new(),
            depth: 0,
            features_per_split: None,
            seed: 0x7EE5,
        }
    }

    /// Fit with explicit per-sample weights (used by AdaBoost.R2).
    ///
    /// # Errors
    ///
    /// Same contract as [`Regressor::fit`].
    pub fn fit_weighted(&mut self, x: &Matrix, y: &[f64], w: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        if w.len() != y.len() {
            return Err(MlError::ShapeMismatch {
                rows: w.len(),
                targets: y.len(),
            });
        }
        self.fit_presorted(&Presorted::new(x), y, w);
        Ok(())
    }

    /// Grow the tree on an already presorted `X`; the ensembles share one
    /// [`Presorted`] across every tree of a fit. Shapes are the caller's
    /// responsibility.
    pub(crate) fn fit_presorted(&mut self, pre: &Presorted, y: &[f64], w: &[f64]) {
        self.nodes.clear();
        let n = pre.rows;
        let mut grower = Grower {
            pre,
            y,
            w,
            idx: (0..n as Row).collect(),
            sorted: pre.order.clone(),
            left: vec![false; n],
            scratch: vec![0; n],
            feats: Vec::with_capacity(pre.cols),
            rng: self.seed | 1,
        };
        self.grow(&mut grower, 0, n, 0);
        self.depth = depth_of(&self.nodes).expect("grown children follow their parents");
    }

    /// Grow the subtree over rows `idx[lo..hi]` and return its node slot.
    fn grow(&mut self, g: &mut Grower, lo: usize, hi: usize, depth: usize) -> usize {
        let (y, w) = (g.y, g.w);
        let idx = &g.idx[lo..hi];
        let node_value = weighted_mean(idx, y, w);
        let make_leaf = idx.len() < self.config.min_samples_split
            || depth >= self.config.max_depth
            || variance(idx, y, w) < 1e-12;
        let slot = self.nodes.len();
        self.nodes.push(Node::leaf(slot, node_value));
        if make_leaf {
            return slot;
        }
        let (n, p) = (g.pre.rows, g.pre.cols);
        g.feats.clear();
        g.feats.extend(0..p);
        if let Some(k) = self.features_per_split {
            // Deterministic partial shuffle.
            for i in 0..k.min(p) {
                g.rng ^= g.rng >> 12;
                g.rng ^= g.rng << 25;
                g.rng ^= g.rng >> 27;
                let j = i + (g.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize) % (p - i);
                g.feats.swap(i, j);
            }
            g.feats.truncate(k.min(p));
        }
        // A split with no left rows always fails the `lw > 0` check, so
        // `min_samples_leaf: 0` grows the tree 1 does.
        let min_leaf = self.config.min_samples_leaf.max(1);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &f in &g.feats {
            let order = &g.sorted[f * n + lo..f * n + hi];
            if let Some((thr, score)) = best_split(g.pre.col(f), y, w, order, min_leaf) {
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, thr, score));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return slot;
        };
        // Send each row left or right, then stable-partition the node's
        // range of every list: ties keep their presorted order.
        let col = g.pre.col(feature);
        for i in g.idx[lo..hi].iter().map(|&i| i as usize) {
            g.left[i] = col[i] <= threshold;
        }
        let mid = lo + stable_partition(&mut g.idx[lo..hi], &g.left, &mut g.scratch);
        for f in 0..p {
            stable_partition(
                &mut g.sorted[f * n + lo..f * n + hi],
                &g.left,
                &mut g.scratch,
            );
        }
        // The slot reserved above becomes the split once both children
        // have theirs.
        let left = self.grow(g, lo, mid, depth + 1);
        let right = self.grow(g, mid, hi, depth + 1);
        self.nodes[slot] = Node {
            value: threshold,
            feature: feature as u32,
            children: [left as u32, right as u32],
        };
        slot
    }

    /// Number of nodes in the grown tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Append the fitted state (used standalone and by the ensembles).
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        encode_config(out, &self.config);
        match self.features_per_split {
            None => out.push(0),
            Some(k) => {
                out.push(1);
                codec::put_usize(out, k);
            }
        }
        out.extend_from_slice(&self.seed.to_le_bytes());
        codec::put_usize(out, self.nodes.len());
        for (slot, node) in self.nodes.iter().enumerate() {
            if node.is_leaf(slot) {
                out.push(0);
                put_f64(out, node.value);
            } else {
                let [left, right] = node.children;
                out.push(1);
                codec::put_usize(out, node.feature as usize);
                put_f64(out, node.value);
                codec::put_usize(out, left as usize);
                codec::put_usize(out, right as usize);
            }
        }
    }

    /// Decode a tree written by [`DecisionTree::encode_state`]. Every
    /// child must come after its parent, as growth places it, so a corrupt
    /// payload can neither panic nor loop a later prediction.
    pub(crate) fn decode_state(r: &mut ByteReader) -> Option<DecisionTree> {
        let config = decode_config(r)?;
        let features_per_split = match r.u8()? {
            0 => None,
            1 => Some(codec::read_usize(r)?),
            _ => return None,
        };
        let seed = r.u64_le()?;
        let count = codec::read_usize(r)?;
        // Every node costs at least two bytes on the wire.
        if count > r.remaining() {
            return None;
        }
        let mut nodes = Vec::with_capacity(count);
        for slot in 0..count {
            nodes.push(match r.u8()? {
                0 => Node::leaf(slot, r.f64_le()?),
                1 => {
                    let feature = u32::try_from(codec::read_usize(r)?).ok()?;
                    let value = r.f64_le()?;
                    let mut child = || u32::try_from(codec::read_usize(r)?).ok();
                    let children = [child()?, child()?];
                    if children.iter().any(|&c| c as usize <= slot) {
                        return None;
                    }
                    Node {
                        value,
                        feature,
                        children,
                    }
                }
                _ => return None,
            });
        }
        let depth = depth_of(&nodes)?;
        Some(DecisionTree {
            config,
            nodes,
            depth,
            features_per_split,
            seed,
        })
    }

    /// Hand every prediction of `trees` on every row of `x` to
    /// `emit(row, tree, value)`. Tree by tree, the rows walk in lockstep
    /// blocks of [`LANES`] and the rest one at a time, so one row's
    /// predictions arrive in tree order. A tree that splits on a feature
    /// `x` lacks walks every row alone and panics where `predict_row`
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `x` has rows and a tree is not fitted.
    pub(crate) fn predict_each<'a>(
        trees: impl Iterator<Item = &'a DecisionTree>,
        x: &Matrix,
        mut emit: impl FnMut(usize, usize, f64),
    ) {
        let (n, cols) = (x.rows(), x.cols());
        for (t, tree) in trees.enumerate() {
            let mut r = 0;
            if tree.reads_within(cols) {
                while r + LANES <= n {
                    let block = &x.as_slice()[r * cols..(r + LANES) * cols];
                    for (l, leaf) in tree.walk::<LANES>(block, cols).into_iter().enumerate() {
                        emit(r + l, t, tree.nodes[leaf as usize].value);
                    }
                    r += LANES;
                }
            }
            for r in r..n {
                emit(
                    r,
                    t,
                    tree.nodes[tree.walk::<1>(x.row(r), cols)[0] as usize].value,
                );
            }
        }
    }

    /// Whether every feature a walk reads is below `cols`: the splits'
    /// and, once the tree has a split, its leaves' feature 0.
    fn reads_within(&self, cols: usize) -> bool {
        self.nodes.iter().all(|n| (n.feature as usize) < cols) || self.depth == 0
    }

    /// The leaf slot each of the `B` rows of `block` (row-major, `cols`
    /// wide) reaches: `depth` lockstep steps from the root, branch-free (a
    /// leaf steps to itself).
    ///
    /// # Panics
    ///
    /// Panics if the tree is not fitted.
    #[inline(never)]
    fn walk<const B: usize>(&self, block: &[f64], cols: usize) -> [u32; B] {
        assert!(!self.nodes.is_empty(), "model must be fitted first");
        let mut cur = [0u32; B];
        for _ in 0..self.depth {
            for (l, c) in cur.iter_mut().enumerate() {
                let node = &self.nodes[*c as usize];
                let v = block[l * cols + node.feature as usize];
                // `!(v <= t)`, not `v > t`: a NaN feature goes right, as
                // it does in `predict_row`.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                let right = !(v <= node.value);
                *c = node.children[usize::from(right)];
            }
        }
        cur
    }
}

/// The splits on the longest walk from the root, or `None` when a child
/// index is out of range or does not follow its parent. With every child
/// after its parent, each step of a walk raises a node's distance from the
/// root, so after this many steps every walk rests on a leaf.
fn depth_of(nodes: &[Node]) -> Option<u32> {
    let mut dist = vec![0u32; nodes.len()];
    let mut depth = 0;
    for (slot, node) in nodes.iter().enumerate() {
        if node.is_leaf(slot) {
            depth = depth.max(dist[slot]);
            continue;
        }
        for c in node.children.map(|c| c as usize) {
            if c <= slot || c >= nodes.len() {
                return None;
            }
            dist[c] = dist[c].max(dist[slot] + 1);
        }
    }
    Some(depth)
}

pub(crate) fn encode_config(out: &mut Vec<u8>, config: &TreeConfig) {
    codec::put_usize(out, config.max_depth);
    codec::put_usize(out, config.min_samples_split);
    codec::put_usize(out, config.min_samples_leaf);
}

pub(crate) fn decode_config(r: &mut ByteReader) -> Option<TreeConfig> {
    Some(TreeConfig {
        max_depth: codec::read_usize(r)?,
        min_samples_split: codec::read_usize(r)?,
        min_samples_leaf: codec::read_usize(r)?,
    })
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let w = vec![1.0; y.len()];
        self.fit_weighted(x, y, &w)
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        assert!(!self.nodes.is_empty(), "model must be fitted first");
        // Root is always the first reserved slot; children follow their
        // parents, so the walk ends.
        let mut slot = 0;
        loop {
            let node = &self.nodes[slot];
            if node.is_leaf(slot) {
                return node.value;
            }
            let [left, right] = node.children;
            slot = if row[node.feature as usize] <= node.value {
                left
            } else {
                right
            } as usize;
        }
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; x.rows()];
        DecisionTree::predict_each(std::iter::once(self), x, |r, _, v| out[r] = v);
        out
    }

    fn name(&self) -> &'static str {
        "decision tree"
    }

    fn save_state(&self) -> Option<ModelState> {
        let mut payload = Vec::new();
        self.encode_state(&mut payload);
        Some(ModelState {
            tag: codec::TAG_TREE,
            payload,
        })
    }
}

fn weighted_mean(idx: &[Row], y: &[f64], w: &[f64]) -> f64 {
    let mut sw = 0.0;
    let mut s = 0.0;
    for i in idx.iter().map(|&i| i as usize) {
        sw += w[i];
        s += w[i] * y[i];
    }
    if sw <= 0.0 {
        0.0
    } else {
        s / sw
    }
}

fn variance(idx: &[Row], y: &[f64], w: &[f64]) -> f64 {
    let m = weighted_mean(idx, y, w);
    let mut sw = 0.0;
    let mut s = 0.0;
    for i in idx.iter().map(|&i| i as usize) {
        sw += w[i];
        s += w[i] * (y[i] - m) * (y[i] - m);
    }
    if sw <= 0.0 {
        0.0
    } else {
        s / sw
    }
}

/// `X` prepared once per fit: a column-major copy plus, for every
/// feature, the row order of a stable `afp_ord::asc` sort of its column.
pub(crate) struct Presorted {
    rows: usize,
    cols: usize,
    /// `data[f·rows + i] = x[i][f]`.
    data: Vec<f64>,
    /// `order[f·rows..(f+1)·rows]`: rows by ascending feature `f`, ties by
    /// row index.
    order: Vec<Row>,
}

impl Presorted {
    pub(crate) fn new(x: &Matrix) -> Presorted {
        let (rows, cols) = (x.rows(), x.cols());
        assert!(Row::try_from(rows).is_ok(), "too many rows for a tree fit");
        let mut data = vec![0.0; rows * cols];
        for i in 0..rows {
            for (f, &v) in x.row(i).iter().enumerate() {
                data[f * rows + i] = v;
            }
        }
        let mut order = Vec::with_capacity(rows * cols);
        for f in 0..cols {
            let col = &data[f * rows..(f + 1) * rows];
            let start = order.len();
            order.extend(0..rows as Row);
            order[start..].sort_by(|&a, &b| afp_ord::asc(col[a as usize], col[b as usize]));
        }
        Presorted {
            rows,
            cols,
            data,
            order,
        }
    }

    fn col(&self, f: usize) -> &[f64] {
        &self.data[f * self.rows..(f + 1) * self.rows]
    }
}

/// Working buffers of one tree fit. A node owns the range `[lo, hi)` of
/// `idx` (its rows, ascending) and of each feature's list in `sorted`
/// (its rows in presorted order).
struct Grower<'a> {
    pre: &'a Presorted,
    y: &'a [f64],
    w: &'a [f64],
    idx: Vec<Row>,
    sorted: Vec<Row>,
    /// Per row: whether the current split sends it left.
    left: Vec<bool>,
    scratch: Vec<Row>,
    feats: Vec<usize>,
    rng: u64,
}

/// Move the rows marked `left` to the front of `buf`, keeping the
/// relative order on both sides; returns the left count. `scratch` must
/// be at least as long as `buf`. Branch-free: every row is written to
/// both sides and only one cursor advances.
fn stable_partition(buf: &mut [Row], left: &[bool], scratch: &mut [Row]) -> usize {
    let (mut k, mut r) = (0, 0);
    for j in 0..buf.len() {
        let i = buf[j];
        let goes_left = left[i as usize];
        buf[k] = i;
        scratch[r] = i;
        k += goes_left as usize;
        r += !goes_left as usize;
    }
    buf[k..].copy_from_slice(&scratch[..r]);
    k
}

/// Best threshold on one feature by weighted SSE, over the node's rows in
/// ascending feature order; returns (threshold, total child SSE) or None
/// when no legal split exists. `min_leaf` must be at least 1.
fn best_split(
    col: &[f64],
    y: &[f64],
    w: &[f64],
    order: &[Row],
    min_leaf: usize,
) -> Option<(f64, f64)> {
    let n = order.len();
    if n < 2 * min_leaf {
        return None;
    }
    // Totals, then left-side running sums of w, w*y, w*y², both in
    // `order`: the same additions a prefix-sum table makes.
    let (mut tw, mut ty, mut ty2) = (0.0, 0.0, 0.0);
    for i in order.iter().map(|&i| i as usize) {
        tw += w[i];
        ty += w[i] * y[i];
        ty2 += w[i] * y[i] * y[i];
    }
    let (mut lw, mut ly, mut ly2) = (0.0, 0.0, 0.0);
    let mut best: Option<(f64, f64)> = None;
    for k in 1..=(n - min_leaf) {
        let i = order[k - 1] as usize;
        lw += w[i];
        ly += w[i] * y[i];
        ly2 += w[i] * y[i] * y[i];
        if k < min_leaf {
            continue;
        }
        let xa = col[i];
        let xb = col[order[k] as usize];
        if xa == xb {
            continue; // cannot split between equal values
        }
        let (rw, ry, ry2) = (tw - lw, ty - ly, ty2 - ly2);
        if lw <= 0.0 || rw <= 0.0 {
            continue;
        }
        let sse = (ly2 - ly * ly / lw) + (ry2 - ry * ry / rw);
        let thr = 0.5 * (xa + xb);
        if best.is_none_or(|(_, s)| sse < s) {
            best = Some((thr, sse));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;
    use proptest::prelude::*;

    /// The clone-and-sort fitter the presorted one replaced, kept verbatim
    /// as the differential oracle: every node re-sorts its rows per
    /// feature and builds prefix-sum tables.
    fn oracle_fit(tree: &mut DecisionTree, x: &Matrix, y: &[f64], w: &[f64]) {
        tree.nodes.clear();
        let idx: Vec<usize> = (0..x.rows()).collect();
        let mut rng = tree.seed | 1;
        oracle_grow(tree, x, y, w, idx, 0, &mut rng);
    }

    fn oracle_grow(
        tree: &mut DecisionTree,
        x: &Matrix,
        y: &[f64],
        w: &[f64],
        idx: Vec<usize>,
        depth: usize,
        rng: &mut u64,
    ) -> usize {
        let rows: Vec<Row> = idx.iter().map(|&i| i as Row).collect();
        let node_value = weighted_mean(&rows, y, w);
        let make_leaf = idx.len() < tree.config.min_samples_split
            || depth >= tree.config.max_depth
            || variance(&rows, y, w) < 1e-12;
        let slot = tree.nodes.len();
        tree.nodes.push(Node::leaf(slot, node_value));
        if make_leaf {
            return slot;
        }
        let p = x.cols();
        let candidates: Vec<usize> = match tree.features_per_split {
            None => (0..p).collect(),
            Some(k) => {
                let mut feats: Vec<usize> = (0..p).collect();
                for i in 0..k.min(p) {
                    *rng ^= *rng >> 12;
                    *rng ^= *rng << 25;
                    *rng ^= *rng >> 27;
                    let j = i + (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize) % (p - i);
                    feats.swap(i, j);
                }
                feats.truncate(k.min(p));
                feats
            }
        };
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &candidates {
            let min_leaf = tree.config.min_samples_leaf;
            if let Some((thr, score)) = oracle_best_split(x, y, w, &idx, f, min_leaf) {
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, thr, score));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return slot;
        };
        let (li, ri): (Vec<usize>, Vec<usize>) = idx
            .into_iter()
            .partition(|&i| x.get(i, feature) <= threshold);
        let left = oracle_grow(tree, x, y, w, li, depth + 1, rng);
        let right = oracle_grow(tree, x, y, w, ri, depth + 1, rng);
        tree.nodes[slot] = Node {
            value: threshold,
            feature: feature as u32,
            children: [left as u32, right as u32],
        };
        slot
    }

    fn oracle_best_split(
        x: &Matrix,
        y: &[f64],
        w: &[f64],
        idx: &[usize],
        feature: usize,
        min_leaf: usize,
    ) -> Option<(f64, f64)> {
        let mut order: Vec<usize> = idx.to_vec();
        order.sort_by(|&a, &b| afp_ord::asc(x.get(a, feature), x.get(b, feature)));
        let n = order.len();
        if n < 2 * min_leaf {
            return None;
        }
        let mut pw = vec![0.0; n + 1];
        let mut py = vec![0.0; n + 1];
        let mut py2 = vec![0.0; n + 1];
        for (k, &i) in order.iter().enumerate() {
            pw[k + 1] = pw[k] + w[i];
            py[k + 1] = py[k] + w[i] * y[i];
            py2[k + 1] = py2[k] + w[i] * y[i] * y[i];
        }
        let total_w = pw[n];
        let mut best: Option<(f64, f64)> = None;
        for k in min_leaf..=(n - min_leaf) {
            let xa = x.get(order[k - 1], feature);
            let xb = x.get(order[k], feature);
            if xa == xb {
                continue;
            }
            let (lw, ly, ly2) = (pw[k], py[k], py2[k]);
            let (rw, ry, ry2) = (total_w - lw, py[n] - ly, py2[n] - ly2);
            if lw <= 0.0 || rw <= 0.0 {
                continue;
            }
            let sse = (ly2 - ly * ly / lw) + (ry2 - ry * ry / rw);
            let thr = 0.5 * (xa + xb);
            if best.is_none_or(|(_, s)| sse < s) {
                best = Some((thr, sse));
            }
        }
        best
    }

    /// splitmix64 step: every proptest case derives its inputs from one
    /// drawn seed.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A column drawn from one of four regimes: constant, a few repeated
    /// integers, special values (±0.0, ±inf, NaN, duplicates), or
    /// continuous.
    fn column(s: &mut u64, n: usize) -> Vec<f64> {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            1.0,
            1.0,
            -2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let regime = mix(s) % 4;
        let c = (mix(s) % 5) as f64;
        (0..n)
            .map(|_| match regime {
                0 => c,
                1 => (mix(s) % 4) as f64,
                2 => SPECIAL[(mix(s) % 8) as usize],
                _ => (mix(s) >> 11) as f64 / (1u64 << 53) as f64 - 0.5,
            })
            .collect()
    }

    /// A random training problem and tree, grown by both fitters.
    fn both_fitters(seed: u64) -> (DecisionTree, DecisionTree) {
        let mut s = seed;
        let n = 1 + (mix(&mut s) % 48) as usize;
        let p = (mix(&mut s) % 5) as usize;
        let cols: Vec<Vec<f64>> = (0..p).map(|_| column(&mut s, n)).collect();
        let data: Vec<f64> = (0..n)
            .flat_map(|i| cols.iter().map(move |c| c[i]))
            .collect();
        let x = Matrix::from_vec(n, p, data);
        let y: Vec<f64> = match mix(&mut s) % 3 {
            0 => (0..n).map(|_| (mix(&mut s) % 3) as f64).collect(),
            _ => column(&mut s, n),
        };
        let w: Vec<f64> = match mix(&mut s) % 3 {
            0 => vec![1.0; n],
            1 => {
                // Bootstrap counts, as the random forest draws them.
                let mut w = vec![0.0; n];
                for _ in 0..n {
                    w[(mix(&mut s) % n as u64) as usize] += 1.0;
                }
                w
            }
            _ => (0..n).map(|_| (mix(&mut s) % 3) as f64 * 0.25).collect(),
        };
        let config = TreeConfig {
            max_depth: (mix(&mut s) % 9) as usize,
            min_samples_split: (mix(&mut s) % 7) as usize,
            min_samples_leaf: 1 + (mix(&mut s) % 4) as usize,
        };
        let mut fast = DecisionTree::new(config);
        if mix(&mut s) & 1 == 0 {
            fast.features_per_split = Some(1 + (mix(&mut s) % 5) as usize);
        }
        fast.seed = mix(&mut s) | 1;
        let mut oracle = fast.clone();
        fast.fit_weighted(&x, &y, &w).unwrap();
        oracle_fit(&mut oracle, &x, &y, &w);
        (fast, oracle)
    }

    fn encoded(t: &DecisionTree) -> Vec<u8> {
        let mut out = Vec::new();
        t.encode_state(&mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Presorted in-place growth builds the tree the clone-and-sort
        /// fitter builds, byte for byte, through ties, ±0.0, NaN and
        /// infinite features, zero and bootstrap weights and per-split
        /// feature sampling.
        #[test]
        fn presorted_growth_matches_the_clone_and_sort_oracle(seed in 0u64..u64::MAX) {
            let (fast, oracle) = both_fitters(seed);
            prop_assert_eq!(encoded(&fast), encoded(&oracle));
        }
    }

    #[test]
    fn min_samples_leaf_zero_grows_the_min_samples_leaf_one_tree() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[2.0], &[5.0], &[6.0]]);
        let y = [0.0, 1.0, 1.5, 2.0, 9.0, 9.5];
        let grow = |min_samples_leaf| {
            let mut t = DecisionTree::new(TreeConfig {
                max_depth: 8,
                min_samples_split: 2,
                min_samples_leaf,
            });
            t.fit(&x, &y).unwrap();
            t
        };
        let (zero, one) = (grow(0), grow(1));
        assert!(zero.node_count() > 1);
        assert_eq!(format!("{:?}", zero.nodes), format!("{:?}", one.nodes));
    }

    #[test]
    fn fits_step_function_exactly() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[10.0], &[11.0], &[12.0]]);
        let y = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0];
        let mut t = DecisionTree::new(TreeConfig {
            min_samples_leaf: 1,
            min_samples_split: 2,
            ..TreeConfig::default()
        });
        t.fit(&x, &y).unwrap();
        assert_eq!(t.predict(&x), y.to_vec());
    }

    #[test]
    fn depth_zero_is_the_mean() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let y = [3.0, 6.0, 9.0];
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        });
        t.fit(&x, &y).unwrap();
        assert_eq!(t.node_count(), 1);
        assert!((t.predict_row(&[5.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [0.0, 1.0, 2.0, 3.0];
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 10,
            min_samples_split: 2,
            min_samples_leaf: 2,
        });
        t.fit(&x, &y).unwrap();
        // With min_leaf=2 only one split (2|2) is possible.
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn weighted_fit_biases_toward_heavy_samples() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let y = [0.0, 10.0];
        let mut t = DecisionTree::new(TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        });
        t.fit_weighted(&x, &y, &[9.0, 1.0]).unwrap();
        assert!((t.predict_row(&[0.0]) - 1.0).abs() < 1e-12); // 10*0.1
    }

    #[test]
    fn learns_nonlinear_target_well() {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut s = 5u64;
        for _ in 0..300 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((s >> 33) & 0xFF) as f64 / 255.0;
            let b = ((s >> 41) & 0xFF) as f64 / 255.0;
            rows.push(vec![a, b]);
            ys.push(if a > 0.5 { a * b } else { -b });
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&x, &ys).unwrap();
        assert!(r2(&t.predict(&x), &ys) > 0.95);
    }
}
