//! Binding relations to query atoms.
//!
//! A [`Database`] pairs a [`Query`] with one relation instance per atom (in
//! atom order) over a common domain `[n]`, validating arities. All
//! algorithms and statistics collectors operate on a `Database`.

use crate::relation::{domain_bits, Relation};
use mpc_query::Query;
use std::fmt;
use std::sync::Arc;

/// Errors raised when assembling a database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// Wrong number of relations for the query's atoms.
    WrongRelationCount { expected: usize, got: usize },
    /// A relation's arity disagrees with its atom.
    ArityMismatch {
        atom: String,
        expected: usize,
        got: usize,
    },
    /// A tuple value falls outside the declared domain.
    ValueOutOfDomain {
        atom: String,
        value: u64,
        domain: u64,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::WrongRelationCount { expected, got } => {
                write!(
                    f,
                    "query has {expected} atoms but {got} relations were supplied"
                )
            }
            CatalogError::ArityMismatch {
                atom,
                expected,
                got,
            } => {
                write!(
                    f,
                    "atom `{atom}` has arity {expected} but its relation has arity {got}"
                )
            }
            CatalogError::ValueOutOfDomain {
                atom,
                value,
                domain,
            } => {
                write!(
                    f,
                    "relation for `{atom}` contains value {value} outside domain [0,{domain})"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// A query plus one relation instance per atom over domain `[0, n)`.
///
/// Relations are held behind [`Arc`], so a `Database` can be assembled from
/// a long-lived catalog (the resident service) without copying tuple data:
/// cloning a `Database`, or building several over the same relations, shares
/// the underlying buffers.
#[derive(Clone, Debug)]
pub struct Database {
    query: Query,
    relations: Vec<Arc<Relation>>,
    domain: u64,
}

impl Database {
    /// Assemble and validate (arity per atom, every value inside the
    /// domain — this scans all tuples once).
    pub fn new(
        query: Query,
        relations: Vec<Relation>,
        domain: u64,
    ) -> Result<Database, CatalogError> {
        for (atom, rel) in query.atoms().iter().zip(&relations) {
            if atom.arity() == rel.arity() {
                if let Some(&v) = rel.rows().flatten().find(|&&v| v >= domain) {
                    return Err(CatalogError::ValueOutOfDomain {
                        atom: atom.name().to_string(),
                        value: v,
                        domain,
                    });
                }
            }
        }
        Database::from_shared(query, relations.into_iter().map(Arc::new).collect(), domain)
    }

    /// Assemble from already-shared relations, validating the relation
    /// count and arities but **not** rescanning values against the domain:
    /// the caller warrants every value is in `[0, domain)`. This is the
    /// zero-copy path the resident service uses — it validates tuples once
    /// at ingest and then stamps out a `Database` per query from `Arc`
    /// clones.
    pub fn from_shared(
        query: Query,
        relations: Vec<Arc<Relation>>,
        domain: u64,
    ) -> Result<Database, CatalogError> {
        if relations.len() != query.num_atoms() {
            return Err(CatalogError::WrongRelationCount {
                expected: query.num_atoms(),
                got: relations.len(),
            });
        }
        for (atom, rel) in query.atoms().iter().zip(&relations) {
            if atom.arity() != rel.arity() {
                return Err(CatalogError::ArityMismatch {
                    atom: atom.name().to_string(),
                    expected: atom.arity(),
                    got: rel.arity(),
                });
            }
        }
        Ok(Database {
            query,
            relations,
            domain,
        })
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Relation bound to atom `j`.
    pub fn relation(&self, j: usize) -> &Relation {
        &self.relations[j]
    }

    /// All relations in atom order, behind their sharing handles.
    pub fn relations(&self) -> &[Arc<Relation>] {
        &self.relations
    }

    /// Domain size `n`.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Bits per value: `ceil(log2 n)`.
    pub fn value_bits(&self) -> u32 {
        domain_bits(self.domain)
    }

    /// Cardinalities `m = (m_1, ..., m_ℓ)`.
    pub fn cardinalities(&self) -> Vec<usize> {
        self.relations.iter().map(|r| r.len()).collect()
    }

    /// Total input size in bits, `Σ_j M_j` with `M_j = a_j m_j log n`.
    pub fn total_bits(&self) -> u64 {
        let bits = self.value_bits();
        self.relations.iter().map(|r| r.bit_size(bits)).sum()
    }

    /// Replace the relation at atom `j` (arity/domain re-validated).
    pub fn replace_relation(&mut self, j: usize, rel: Relation) -> Result<(), CatalogError> {
        let atom = &self.query.atoms()[j];
        if atom.arity() != rel.arity() {
            return Err(CatalogError::ArityMismatch {
                atom: atom.name().to_string(),
                expected: atom.arity(),
                got: rel.arity(),
            });
        }
        self.relations[j] = Arc::new(rel);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_query::named;

    fn join_db() -> Database {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[1, 5], &[2, 5]]);
        let s2 = Relation::from_rows("S2", 2, &[&[9, 5]]);
        Database::new(q, vec![s1, s2], 16).unwrap()
    }

    #[test]
    fn valid_database() {
        let db = join_db();
        assert_eq!(db.cardinalities(), vec![2, 1]);
        assert_eq!(db.value_bits(), 4);
        assert_eq!([0, 1].map(|j| db.relation(j).bit_size(4)), [16, 8]);
        assert_eq!(db.total_bits(), 24);
    }

    #[test]
    fn wrong_count_rejected() {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[1, 5]]);
        let err = Database::new(q, vec![s1], 16).unwrap_err();
        assert!(matches!(err, CatalogError::WrongRelationCount { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 1, &[&[1]]);
        let s2 = Relation::from_rows("S2", 2, &[&[9, 5]]);
        let err = Database::new(q, vec![s1, s2], 16).unwrap_err();
        assert!(matches!(err, CatalogError::ArityMismatch { .. }));
    }

    #[test]
    fn out_of_domain_rejected() {
        let q = named::two_way_join();
        let s1 = Relation::from_rows("S1", 2, &[&[1, 99]]);
        let s2 = Relation::from_rows("S2", 2, &[&[9, 5]]);
        let err = Database::new(q, vec![s1, s2], 16).unwrap_err();
        assert!(matches!(err, CatalogError::ValueOutOfDomain { .. }));
    }

    #[test]
    fn from_shared_skips_value_scan_but_checks_shape() {
        let q = named::two_way_join();
        let s1 = Arc::new(Relation::from_rows("S1", 2, &[&[1, 5]]));
        let s2 = Arc::new(Relation::from_rows("S2", 2, &[&[9, 5]]));
        let db = Database::from_shared(q.clone(), vec![s1.clone(), s2.clone()], 16).unwrap();
        // Tuple data is shared, not copied.
        assert!(std::ptr::eq(db.relation(0), s1.as_ref()));
        let err = Database::from_shared(q.clone(), vec![s1.clone()], 16).unwrap_err();
        assert!(matches!(err, CatalogError::WrongRelationCount { .. }));
        let bad = Arc::new(Relation::from_rows("S1", 1, &[&[1]]));
        let err = Database::from_shared(q, vec![bad, s2], 16).unwrap_err();
        assert!(matches!(err, CatalogError::ArityMismatch { .. }));
    }

    #[test]
    fn replace_relation_validates() {
        let mut db = join_db();
        let bad = Relation::from_rows("S1", 1, &[&[1]]);
        assert!(db.replace_relation(0, bad).is_err());
        let good = Relation::from_rows("S1", 2, &[&[3, 3]]);
        assert!(db.replace_relation(0, good).is_ok());
        assert_eq!(db.relation(0).len(), 1);
    }
}
