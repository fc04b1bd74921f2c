//! Hypercube server grids with mixed-radix addressing.
//!
//! The HyperCube algorithm (Section 3.1) organizes `p = p1 · p2 ··· pk`
//! servers as a k-dimensional grid, one dimension per query variable with
//! `p_i` *shares*. A tuple hashing to known coordinates in some dimensions
//! is replicated to the whole subcube spanned by the remaining dimensions.
//! Which dimensions a tuple knows depends on its atom only, so that set is
//! compiled once per atom into a [`SubcubePlan`] (strides of the fixed
//! dimensions + ascending offsets of the free ones; [`Grid::subcubes`]
//! compiles every atom's at once); `Grid::subcube_vec` enumerates one
//! subcube through the same plan.

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

    /// Compile the subcube spanned by fixing each list of dimensions and
    /// letting every other dimension range over everything — the part of
    /// a HyperCube destination set that depends on the atom and the shares
    /// only, never on the tuple. A dimension may be named more than once
    /// (a repeated variable); see [`SubcubePlan::base`].
    ///
    /// # Panics
    /// Panics when a fixed dimension is out of range.
    pub fn subcubes<'a>(&self, lists: impl IntoIterator<Item = &'a [usize]>) -> Subcubes {
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
        let narrow = |v: usize| u32::try_from(v).expect("32-bit subcube plans");
        let (mut fixed, mut offsets, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for fixed_dims in lists {
            let start = fixed.len();
            for (i, &dim) in fixed_dims.iter().enumerate() {
                assert!(dim < k, "fixed dimension out of range");
                fixed.push(FixedDim {
                    dim: narrow(dim),
                    size: narrow(self.dims[dim]),
                    stride: narrow(strides[dim]),
                    slice_stride: 0,
                    first: narrow(fixed_dims[..i].iter().position(|&d| d == dim).unwrap_or(i)),
                });
            }
            // Slices are numbered mixed-radix over the distinct fixed
            // dimensions, the last named least significant.
            let mut slices = 1;
            for (i, f) in fixed[start..].iter_mut().enumerate().rev() {
                if f.first as usize == i {
                    f.slice_stride = slices;
                    slices *= f.size;
                }
            }
            // Free dimensions expanded most significant first, so the
            // offsets come out in lexicographic = ascending numeric order.
            let mut free = vec![0u32];
            for i in (0..k).filter(|i| !fixed_dims.contains(i)) {
                let (size, stride) = (self.dims[i], strides[i]);
                free = (free.iter())
                    .flat_map(|&o| (0..size).map(move |c| o + (c * stride) as u32))
                    .collect();
            }
            offsets.extend(free);
            ends.push((narrow(fixed.len()), narrow(offsets.len()), slices));
        }
        Subcubes {
            cells: self.num_cells(),
            fixed: fixed.into(),
            offsets: offsets.into(),
            ends: ends.into(),
        }
    }

    /// Enumerate all server ids whose coordinates agree with `fixed`
    /// (a list of `(dimension, coordinate)` pairs); the remaining dimensions
    /// range over everything. This is the subcube a tuple is replicated to
    /// during the HyperCube shuffle, in ascending order. This convenience
    /// form compiles a fresh [`SubcubePlan`] per call; routers compile one
    /// per atom when the plan is built ([`Grid::subcubes`]).
    pub fn subcube_vec(&self, fixed: &[(usize, usize)]) -> Vec<usize> {
        let (dims, coords): (Vec<usize>, Vec<usize>) = fixed.iter().copied().unzip();
        let subcubes = self.subcubes([&dims[..]]);
        let plan = subcubes.get(0);
        match plan.base(&coords) {
            Some(base) => plan.offsets().iter().map(|&o| base + o as usize).collect(),
            None => Vec::new(),
        }
    }
}

/// One fixed dimension of a [`SubcubePlan`], in the order it was named.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FixedDim {
    dim: u32,
    size: u32,
    stride: u32,
    /// What one step of the coordinate adds to the slice number (0 on a
    /// repeat).
    slice_stride: u32,
    /// Index of the first entry naming the same dimension (its own index
    /// unless the dimension is repeated).
    first: u32,
}

/// Several [`SubcubePlan`]s on one grid ([`Grid::subcubes`]), one per list
/// of fixed dimensions — under HyperCube, one per atom — in three flat
/// allocations: plans are cached by the hundred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Subcubes {
    /// The grid's cell count.
    pub(crate) cells: usize,
    fixed: Box<[FixedDim]>,
    offsets: Box<[u32]>,
    /// Per plan: where it ends in `fixed` and in `offsets`, and its slices.
    ends: Box<[(u32, u32, u32)]>,
}

impl Subcubes {
    /// Number of plans.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The `i`-th plan.
    pub fn get(&self, i: usize) -> SubcubePlan<'_> {
        let (fixed_lo, offsets_lo) = match i {
            0 => (0, 0),
            _ => (self.ends[i - 1].0, self.ends[i - 1].1),
        };
        let (fixed_hi, offsets_hi, slices) = self.ends[i];
        SubcubePlan {
            fixed: &self.fixed[fixed_lo as usize..fixed_hi as usize],
            offsets: &self.offsets[offsets_lo as usize..offsets_hi as usize],
            slices: slices as usize,
        }
    }
}

/// A compiled subcube: the mixed-radix stride of each fixed dimension plus
/// the **ascending** server-id offsets of every combination of the free
/// dimensions (`Π free dims` entries, at most the grid's cell count). A
/// tuple's destination set is then `base + offsets` with
/// `base = Σ coordinate · stride` — no per-tuple enumeration state. (This
/// replaced the per-tuple odometer walk and its scratch buffers;
/// `Grid::subcube_vec` is a wrapper over it, so there is one enumeration.)
///
/// The subcubes of one plan partition the grid into *slices*, one per
/// combination of the fixed coordinates, numbered `0..slices()`:
/// [`SubcubePlan::slice`] numbers a coordinate vector, and
/// [`SubcubePlan::first_cell`] gives a slice's `base`.
#[derive(Clone, Copy, Debug)]
pub struct SubcubePlan<'a> {
    fixed: &'a [FixedDim],
    offsets: &'a [u32],
    slices: usize,
}

impl<'a> SubcubePlan<'a> {
    /// Number of slices: the product of the distinct fixed dimensions.
    pub fn slices(&self) -> usize {
        self.slices
    }

    /// The first cell of slice `slice`: the `base` its coordinates give.
    pub fn first_cell(&self, slice: usize) -> usize {
        (self.fixed.iter().enumerate())
            .filter(|&(i, f)| f.first as usize == i)
            .map(|(_, f)| slice / f.slice_stride as usize % f.size as usize * f.stride as usize)
            .sum()
    }

    /// Ascending offsets of the free-dimension combinations.
    pub fn offsets(&self) -> &'a [u32] {
        self.offsets
    }

    /// The slice of the coordinates `coord(i, dim, size)` gives the `i`-th
    /// fixed dimension (`dim`, of `size` cells; one of a single cell is
    /// coordinate 0 and never asked), or `None` when a dimension fixed
    /// twice gets two coordinates.
    #[inline]
    pub fn slice(&self, mut coord: impl FnMut(usize, usize, usize) -> usize) -> Option<usize> {
        let mut slice = 0;
        for (i, f) in self.fixed.iter().enumerate().filter(|(_, f)| f.size > 1) {
            let (dim, size, first) = (f.dim as usize, f.size as usize, f.first as usize);
            let c = coord(i, dim, size);
            if first == i {
                slice += c * f.slice_stride as usize;
            } else if coord(first, dim, size) != c {
                return None;
            }
        }
        Some(slice)
    }

    /// The server id of the subcube's first cell for one coordinate per
    /// fixed dimension. A dimension fixed twice must agree on its
    /// coordinate: `None` (the empty subcube) when it does not.
    ///
    /// # Panics
    /// Panics on a coordinate count mismatch or an out-of-range coordinate.
    pub fn base(&self, coords: &[usize]) -> Option<usize> {
        assert_eq!(coords.len(), self.fixed.len(), "coordinate rank mismatch");
        let in_range = (coords.iter().zip(self.fixed)).all(|(&c, f)| c < f.size as usize);
        assert!(in_range, "fixed coordinate out of range");
        self.slice(|i, _, _| coords[i])
            .map(|slice| self.first_cell(slice))
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
