//! Per-server load accounting.
//!
//! The MPC model's cost (Section 2.1) is the *load* `L`: the maximum number
//! of bits any server receives during the communication round. The
//! replication rate `r = Σ_i L_i / |I|` of Section 5 is derived from the
//! same counters.

/// Exact communication accounting for one round, produced by
/// [`crate::cluster::Cluster::report`]. Equality is exact per-server
/// equality — the differential suite uses it to prove backend determinism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Bits received per server.
    pub per_server_bits: Vec<u64>,
    /// Tuples received per server (all relations combined).
    pub per_server_tuples: Vec<u64>,
    /// Tuples received per server, split by atom: `[atom][server]`.
    pub per_atom_server_tuples: Vec<Vec<u64>>,
    /// Total input size `Σ_j M_j` in bits (for replication-rate math).
    pub input_bits: u64,
}

impl LoadReport {
    /// The load `L`: maximum bits received by any server.
    pub fn max_load_bits(&self) -> u64 {
        self.per_server_bits.iter().copied().max().unwrap_or(0)
    }

    /// Maximum tuples received by any server.
    pub fn max_load_tuples(&self) -> u64 {
        self.per_server_tuples.iter().copied().max().unwrap_or(0)
    }

    /// Total bits communicated, `Σ_i L_i`.
    pub fn total_bits(&self) -> u64 {
        self.per_server_bits.iter().sum()
    }

    /// Total tuples communicated.
    pub fn total_tuples(&self) -> u64 {
        self.per_server_tuples.iter().sum()
    }

    /// Replication rate `r = Σ_i L_i / |I|` (Section 5).
    pub fn replication_rate(&self) -> f64 {
        if self.input_bits == 0 {
            0.0
        } else {
            self.total_bits() as f64 / self.input_bits as f64
        }
    }

    /// Mean bits per server.
    pub fn mean_load_bits(&self) -> f64 {
        if self.per_server_bits.is_empty() {
            0.0
        } else {
            self.total_bits() as f64 / self.per_server_bits.len() as f64
        }
    }

    /// Max/mean imbalance factor (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean_load_bits();
        if mean == 0.0 {
            0.0
        } else {
            self.max_load_bits() as f64 / mean
        }
    }

    /// Maximum tuples of a single atom's relation received by any server.
    pub fn max_load_tuples_for_atom(&self, atom: usize) -> u64 {
        self.per_atom_server_tuples[atom]
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> LoadReport {
        LoadReport {
            per_server_bits: vec![100, 300, 200, 0],
            per_server_tuples: vec![10, 30, 20, 0],
            per_atom_server_tuples: vec![vec![10, 10, 0, 0], vec![0, 20, 20, 0]],
            input_bits: 300,
        }
    }

    #[test]
    fn maxima_and_totals() {
        let r = report();
        assert_eq!(r.per_server_bits.len(), 4);
        assert_eq!(r.max_load_bits(), 300);
        assert_eq!(r.max_load_tuples(), 30);
        assert_eq!(r.total_bits(), 600);
        assert_eq!(r.total_tuples(), 60);
    }

    #[test]
    fn replication_rate() {
        let r = report();
        assert!((r.replication_rate() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance() {
        let r = report();
        assert!((r.mean_load_bits() - 150.0).abs() < 1e-12);
        assert!((r.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_atom_maxima() {
        let r = report();
        assert_eq!(r.max_load_tuples_for_atom(0), 10);
        assert_eq!(r.max_load_tuples_for_atom(1), 20);
    }

    #[test]
    fn empty_report() {
        let r = LoadReport {
            per_server_bits: vec![],
            per_server_tuples: vec![],
            per_atom_server_tuples: vec![],
            input_bits: 0,
        };
        assert_eq!(r.max_load_bits(), 0);
        assert_eq!(r.replication_rate(), 0.0);
        assert_eq!(r.imbalance(), 0.0);
    }
}
