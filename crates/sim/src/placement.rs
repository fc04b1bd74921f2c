//! Where a round's fragments live.
//!
//! A [`crate::cluster::Router`] emits a tuple's *fragment keys*; a
//! [`Placement`], fixed when the algorithm is planned, maps every key to
//! the servers that hold its fragment. The paper's skew algorithms are
//! unions of HyperCube sub-instances, each on its own *block* of virtual
//! servers (§4.1's light grid and heavy grids, §4.2's one block per bin
//! combination and assignment). A placement lays the blocks out back to
//! back and folds every virtual server onto the `p` physical ones,
//! `v mod p`: the one place that fold happens.
//!
//! A block is one copy of a grid, given by every atom's subcube plan on it
//! ([`Subcubes`], plan `j` for atom `j`). In it, atom `j`'s keys are the
//! slices of its plan ([`crate::topology::SubcubePlan::slices`]), each
//! held by the cells of its subcube. Keys are numbered per atom, block after
//! block, so a key names one block and one slice. A block has at most `p`
//! cells, so the fold is injective within it; two blocks may share a
//! server. [`Placement::identity`] has one block whose keys are the
//! servers: the placement of the baselines and of every closure router.

use crate::topology::Subcubes;
use std::sync::Arc;

/// Maps every atom's fragment keys to the servers that hold them.
#[derive(Clone, Debug)]
pub struct Placement {
    p: usize,
    /// Blocks of one shape laid back to back: the shape, the first block,
    /// and the virtual server of its first cell. Empty for the identity.
    runs: Vec<(Arc<Subcubes>, usize, usize)>,
    /// `first_keys[atom][run]`: the atom's first key in the run.
    first_keys: Vec<Vec<usize>>,
    /// Per atom: its number of keys.
    keys: Vec<usize>,
    blocks: usize,
    virtual_servers: usize,
}

impl Placement {
    /// One block of `p` keys per atom, each held by the server it names.
    pub fn identity(p: usize) -> Placement {
        Placement {
            p,
            runs: Vec::new(),
            first_keys: Vec::new(),
            keys: Vec::new(),
            blocks: 1,
            virtual_servers: p,
        }
    }

    /// Lay `blocks` blocks of `shape` out after those already placed (the
    /// first call replaces the identity's block) and return each atom's
    /// first key in them: atom `j`'s slice `s` of block `b` is key
    /// `first[j] + b * slices_j + s`.
    ///
    /// # Panics
    /// Panics when the shape has more than `p` cells.
    pub fn push(&mut self, shape: Arc<Subcubes>, blocks: usize) -> Vec<usize> {
        assert!(shape.cells <= self.p, "a block has at most p cells");
        if self.is_identity() {
            self.first_keys = vec![Vec::new(); shape.len()];
            self.keys = vec![0; shape.len()];
            (self.blocks, self.virtual_servers) = (0, 0);
        }
        let first = self.keys.clone();
        for j in 0..shape.len() {
            self.first_keys[j].push(self.keys[j]);
            self.keys[j] += blocks * shape.get(j).slices();
        }
        let cells = blocks * shape.cells;
        self.runs.push((shape, self.blocks, self.virtual_servers));
        self.blocks += blocks;
        self.virtual_servers += cells;
        first
    }

    /// Number of physical servers.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of keys of atom `atom`.
    pub fn keys(&self, atom: usize) -> usize {
        match self.is_identity() {
            true => self.p,
            false => self.keys[atom],
        }
    }

    /// Number of blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks
    }

    /// Whether every key is the server that holds it.
    pub(crate) fn is_identity(&self) -> bool {
        self.runs.is_empty()
    }

    /// Virtual servers over all blocks, before the fold.
    pub fn virtual_servers(&self) -> usize {
        self.virtual_servers
    }

    /// The block of atom `atom`'s key `key`, and the servers that hold it.
    pub fn place(&self, atom: usize, key: usize) -> (usize, impl Iterator<Item = usize> + '_) {
        let (block, first, offsets) = match self.is_identity() {
            true => (0, key, &[0][..]),
            false => {
                let firsts = &self.first_keys[atom];
                let r = firsts.partition_point(|&f| f <= key) - 1;
                let (shape, first_block, offset) = &self.runs[r];
                let plan = shape.get(atom);
                let (block, slice) = (
                    (key - firsts[r]) / plan.slices(),
                    (key - firsts[r]) % plan.slices(),
                );
                let first = offset + block * shape.cells + plan.first_cell(slice);
                (first_block + block, first, plan.offsets())
            }
        };
        (
            block,
            offsets.iter().map(move |&o| (first + o as usize) % self.p),
        )
    }
}
