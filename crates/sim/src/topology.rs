//! Hypercube server grids with mixed-radix addressing.
//!
//! The HyperCube algorithm (Section 3.1) organizes `p = p1 · p2 ··· pk`
//! servers as a k-dimensional grid, one dimension per query variable with
//! `p_i` *shares*. A tuple hashing to known coordinates in some dimensions
//! is replicated to the whole subcube spanned by the remaining dimensions.
//! Which dimensions a tuple knows depends on its atom only, so that set is
//! compiled once per atom into a [`SubcubePlan`] (strides of the fixed
//! dimensions + ascending offsets of the free ones); `Grid::subcube`
//! enumerates one subcube through the same plan.

/// A k-dimensional grid of servers, `dims[i]` cells along dimension `i`.
/// Server ids are mixed-radix encodings of coordinate vectors, dimension 0
/// most significant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grid {
    dims: Vec<usize>,
}

impl Grid {
    /// Build a grid; every dimension must be non-empty.
    pub fn new(dims: Vec<usize>) -> Grid {
        assert!(!dims.is_empty(), "grid needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "grid dimensions must be positive"
        );
        Grid { dims }
    }

    /// Dimension sizes (the share vector).
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions `k`.
    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of cells `p1 ··· pk`.
    pub fn num_cells(&self) -> usize {
        self.dims.iter().product()
    }

    /// Encode a coordinate vector into a server id.
    pub fn encode(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len(), "coordinate rank mismatch");
        let mut id = 0usize;
        for (c, d) in coords.iter().zip(&self.dims) {
            debug_assert!(c < d, "coordinate {c} out of range for dim {d}");
            id = id * d + c;
        }
        id
    }

    /// Decode a server id into coordinates.
    pub fn decode(&self, mut id: usize) -> Vec<usize> {
        let mut coords = vec![0usize; self.dims.len()];
        for i in (0..self.dims.len()).rev() {
            coords[i] = id % self.dims[i];
            id /= self.dims[i];
        }
        debug_assert_eq!(id, 0, "server id out of range");
        coords
    }

    /// Compile the subcube spanned by fixing `fixed_dims` and letting every
    /// other dimension range over everything — the part of a HyperCube
    /// destination set that depends on the atom and the shares only, never
    /// on the tuple. A dimension may be named more than once (a repeated
    /// variable); see [`SubcubePlan::base`].
    ///
    /// # Panics
    /// Panics when a fixed dimension is out of range.
    pub fn subcube_plan(&self, fixed_dims: &[usize]) -> SubcubePlan {
        assert!(
            u32::try_from(self.num_cells()).is_ok(),
            "subcube offsets are 32-bit server ids"
        );
        let k = self.dims.len();
        // Mixed-radix strides, dimension 0 most significant (as `encode`).
        let mut strides = vec![1usize; k];
        for i in (0..k.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        let fixed = fixed_dims
            .iter()
            .enumerate()
            .map(|(i, &dim)| {
                assert!(dim < k, "fixed dimension out of range");
                FixedDim {
                    size: self.dims[dim],
                    stride: strides[dim],
                    first: fixed_dims[..i].iter().position(|&d| d == dim).unwrap_or(i),
                }
            })
            .collect();
        // Free dimensions expanded most significant first, so the offsets
        // come out in lexicographic = ascending numeric order.
        let mut offsets = vec![0u32];
        for i in (0..k).filter(|i| !fixed_dims.contains(i)) {
            let (size, stride) = (self.dims[i], strides[i]);
            offsets = offsets
                .iter()
                .flat_map(|&o| (0..size).map(move |c| o + (c * stride) as u32))
                .collect();
        }
        SubcubePlan { fixed, offsets }
    }

    /// Enumerate all server ids whose coordinates agree with `fixed`
    /// (a list of `(dimension, coordinate)` pairs); the remaining dimensions
    /// range over everything. This is the subcube a tuple is replicated to
    /// during the HyperCube shuffle, in ascending order.
    ///
    /// Destinations are appended to `out` (cleared first). This convenience
    /// form compiles a fresh [`SubcubePlan`] per call; routers compile one
    /// per atom when the plan is built ([`Grid::subcube_plan`]).
    pub(crate) fn subcube(&self, fixed: &[(usize, usize)], out: &mut Vec<usize>) {
        out.clear();
        let (dims, coords): (Vec<usize>, Vec<usize>) = fixed.iter().copied().unzip();
        let plan = self.subcube_plan(&dims);
        if let Some(base) = plan.base(&coords) {
            plan.emit(base, out);
        }
    }

    /// Convenience wrapper returning the subcube as a fresh vector.
    pub fn subcube_vec(&self, fixed: &[(usize, usize)]) -> Vec<usize> {
        let mut out = Vec::new();
        self.subcube(fixed, &mut out);
        out
    }
}

/// One fixed dimension of a [`SubcubePlan`], in the order it was named.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FixedDim {
    size: usize,
    stride: usize,
    /// Index of the first entry naming the same dimension (its own index
    /// unless the dimension is repeated).
    first: usize,
}

/// A compiled subcube ([`Grid::subcube_plan`]): the mixed-radix stride of
/// each fixed dimension plus the **ascending** server-id offsets of every
/// combination of the free dimensions (`Π free dims` entries, at most the
/// grid's cell count; 32-bit, because plans — and these with them — are
/// cached by the hundred). A tuple's destination set is then
/// `base + offsets` with `base = Σ coordinate · stride` — no per-tuple
/// enumeration state. (This replaced the per-tuple odometer walk and its
/// scratch buffers; `Grid::subcube` is a wrapper over it, so there is one
/// enumeration.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubcubePlan {
    fixed: Vec<FixedDim>,
    offsets: Vec<u32>,
}

impl SubcubePlan {
    /// Stride of the `i`-th fixed dimension (in the order given to
    /// [`Grid::subcube_plan`]): what one step of its coordinate adds to
    /// the server id.
    pub fn stride(&self, i: usize) -> usize {
        self.fixed[i].stride
    }

    /// Ascending offsets of the free-dimension combinations.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The server id of the subcube's first cell for one coordinate per
    /// fixed dimension. A dimension fixed twice must agree on its
    /// coordinate: `None` (the empty subcube) when it does not.
    ///
    /// # Panics
    /// Panics on a coordinate count mismatch or an out-of-range coordinate.
    pub fn base(&self, coords: &[usize]) -> Option<usize> {
        assert_eq!(coords.len(), self.fixed.len(), "coordinate rank mismatch");
        let mut base = 0usize;
        for (i, (f, &c)) in self.fixed.iter().zip(coords).enumerate() {
            assert!(c < f.size, "fixed coordinate out of range");
            if f.first == i {
                base += c * f.stride;
            } else if coords[f.first] != c {
                return None;
            }
        }
        Some(base)
    }

    /// Append the subcube starting at `base` to `out`, ascending.
    #[inline]
    pub fn emit(&self, base: usize, out: &mut Vec<usize>) {
        out.extend(self.offsets.iter().map(|&o| base + o as usize));
    }
}

/// Round real-valued shares `p^{e_i}` down to an integer share vector with
/// `Π p_i <= p`, then greedily grow the dimension with the largest
/// fractional headroom while the budget allows. This is the integer-share
/// materialization step between Theorem 3.4's exponents and an actual grid.
pub fn round_shares(p: usize, exponents: &[f64]) -> Vec<usize> {
    assert!(p >= 1);
    let k = exponents.len();
    let ideal: Vec<f64> = exponents
        .iter()
        .map(|&e| (p as f64).powf(e.max(0.0)))
        .collect();
    let mut shares: Vec<usize> = ideal.iter().map(|&x| (x.floor() as usize).max(1)).collect();
    // Clamp in case of floating error.
    loop {
        let product: usize = shares.iter().product();
        if product <= p {
            break;
        }
        // Shrink the dimension with the largest overshoot.
        let i = (0..k)
            .filter(|&i| shares[i] > 1)
            .max_by(|&a, &b| {
                let ra = shares[a] as f64 / ideal[a];
                let rb = shares[b] as f64 / ideal[b];
                ra.partial_cmp(&rb).expect("finite ratios")
            })
            .expect("some dimension is shrinkable");
        shares[i] -= 1;
    }
    // Greedily grow while the budget allows, preferring the dimension whose
    // current share is furthest below its ideal.
    loop {
        let product: usize = shares.iter().product();
        let candidate = (0..k)
            .filter(|&i| product / shares[i] * (shares[i] + 1) <= p)
            .min_by(|&a, &b| {
                let ra = (shares[a] + 1) as f64 / ideal[a].max(1.0);
                let rb = (shares[b] + 1) as f64 / ideal[b].max(1.0);
                ra.partial_cmp(&rb).expect("finite ratios")
            });
        match candidate {
            Some(i) => shares[i] += 1,
            None => break,
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let g = Grid::new(vec![3, 4, 5]);
        assert_eq!(g.num_cells(), 60);
        for id in 0..60 {
            assert_eq!(g.encode(&g.decode(id)), id);
        }
    }

    #[test]
    fn subcube_fixes_dimensions() {
        let g = Grid::new(vec![2, 3, 2]);
        // Fix dim 1 = 2: expect 2*2 = 4 servers, all decoding with coord[1]=2.
        let cells = g.subcube_vec(&[(1, 2)]);
        assert_eq!(cells.len(), 4);
        for id in cells {
            assert_eq!(g.decode(id)[1], 2);
        }
    }

    #[test]
    fn subcube_with_all_fixed_is_single_cell() {
        let g = Grid::new(vec![2, 3]);
        let cells = g.subcube_vec(&[(0, 1), (1, 2)]);
        assert_eq!(cells, vec![g.encode(&[1, 2])]);
    }

    #[test]
    fn subcube_with_nothing_fixed_is_broadcast() {
        let g = Grid::new(vec![2, 2]);
        let mut cells = g.subcube_vec(&[]);
        cells.sort_unstable();
        assert_eq!(cells, vec![0, 1, 2, 3]);
    }

    #[test]
    fn subcube_conflicting_fixed_is_empty() {
        let g = Grid::new(vec![4, 4]);
        // Repeated variable mapped to the same dim with different hashes.
        let cells = g.subcube_vec(&[(0, 1), (0, 2)]);
        assert!(cells.is_empty());
    }

    #[test]
    fn subcube_sizes_multiply() {
        let g = Grid::new(vec![3, 5, 7]);
        assert_eq!(g.subcube_vec(&[(0, 0)]).len(), 35);
        assert_eq!(g.subcube_vec(&[(2, 6)]).len(), 15);
        assert_eq!(g.subcube_vec(&[(0, 1), (2, 3)]).len(), 5);
    }

    #[test]
    fn round_shares_respects_budget() {
        for (p, exps) in [
            (64usize, vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]),
            (100, vec![0.5, 0.5, 0.0]),
            (17, vec![0.9, 0.1]),
            (8, vec![1.0]),
            (1, vec![0.3, 0.7]),
        ] {
            let shares = round_shares(p, &exps);
            let product: usize = shares.iter().product();
            assert!(product <= p, "p={p} exps={exps:?} -> {shares:?}");
            assert!(shares.iter().all(|&s| s >= 1));
        }
    }

    #[test]
    fn round_shares_hits_exact_cubes() {
        // p = 64 with equal thirds: 4 x 4 x 4.
        assert_eq!(round_shares(64, &[1.0 / 3.0; 3]), vec![4, 4, 4]);
        // p = 16 with halves: 4 x 4.
        assert_eq!(round_shares(16, &[0.5, 0.5]), vec![4, 4]);
    }

    #[test]
    fn round_shares_degenerate_dimension() {
        // e = 0 should pin the share to ~1 but greedy growth may use spare
        // budget; the product must stay within p.
        let shares = round_shares(8, &[0.0, 1.0]);
        let product: usize = shares.iter().product();
        assert!(product <= 8);
        assert!(shares[1] >= 4, "main dimension starved: {shares:?}");
    }
}
