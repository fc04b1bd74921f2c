//! Simple database statistics (Section 3): cardinalities and bit sizes.
//!
//! "Simple database statistics consists of the cardinalities `m_j` of all
//! input relations" — the information regime of Section 3's upper and lower
//! bounds. The bit sizes follow the paper's convention
//! `M_j = a_j · m_j · log n`.

use mpc_data::catalog::Database;
use mpc_data::relation::Relation;

/// The statistics every input server knows in the simple regime.
#[derive(Clone, Debug, PartialEq)]
pub struct SimpleStatistics {
    /// Cardinalities `m_j`, in atom order.
    pub cardinalities: Vec<usize>,
    /// Bit sizes `M_j = a_j m_j log n`, in atom order.
    pub bit_sizes: Vec<u64>,
    /// Bits per value, `log n`.
    pub value_bits: u32,
    /// Domain size `n`.
    pub domain: u64,
}

impl SimpleStatistics {
    /// Collect from a database.
    pub fn of(db: &Database) -> SimpleStatistics {
        SimpleStatistics::over(db.relations().iter().map(|rel| &**rel), db.domain())
    }

    /// Collect from one relation per atom, in atom order, over domain
    /// `[0, domain)`.
    pub(crate) fn over<'r>(
        relations: impl Iterator<Item = &'r Relation> + Clone,
        domain: u64,
    ) -> SimpleStatistics {
        let value_bits = mpc_data::domain_bits(domain);
        SimpleStatistics {
            cardinalities: relations.clone().map(Relation::len).collect(),
            bit_sizes: relations.map(|rel| rel.bit_size(value_bits)).collect(),
            value_bits,
            domain,
        }
    }

    /// Construct synthetic statistics without a materialized database
    /// (bounds can be evaluated without generating data).
    pub fn synthetic(
        arities: &[usize],
        cardinalities: Vec<usize>,
        domain: u64,
    ) -> SimpleStatistics {
        assert_eq!(arities.len(), cardinalities.len());
        let value_bits = mpc_data::domain_bits(domain);
        let bit_sizes = arities
            .iter()
            .zip(&cardinalities)
            .map(|(&a, &m)| a as u64 * m as u64 * value_bits as u64)
            .collect();
        SimpleStatistics {
            cardinalities,
            bit_sizes,
            value_bits,
            domain,
        }
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.cardinalities.len()
    }

    /// Total input bits `Σ_j M_j`.
    pub fn total_bits(&self) -> u64 {
        self.bit_sizes.iter().sum()
    }

    /// Bit sizes as `f64` (bounds math).
    pub fn bit_sizes_f64(&self) -> Vec<f64> {
        self.bit_sizes.iter().map(|&b| b as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::Relation;
    use mpc_query::named;

    #[test]
    fn collects_from_database() {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[0, 1], &[2, 3], &[4, 5]]);
        let s2 = Relation::from_rows("S2", 2, &[&[6, 7]]);
        let db = Database::new(q, vec![s1, s2], 256).unwrap();
        let st = SimpleStatistics::of(&db);
        assert_eq!(st.cardinalities, vec![3, 1]);
        assert_eq!(st.value_bits, 8);
        assert_eq!(st.bit_sizes, vec![48, 16]);
        assert_eq!(st.total_bits(), 64);
        assert_eq!(st.num_relations(), 2);
    }

    #[test]
    fn synthetic_matches_formula() {
        let st = SimpleStatistics::synthetic(&[2, 2, 2], vec![100, 200, 400], 1 << 20);
        assert_eq!(st.value_bits, 20);
        assert_eq!(st.bit_sizes, vec![4000, 8000, 16000]);
    }
}
