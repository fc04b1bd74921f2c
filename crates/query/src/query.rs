//! Full conjunctive queries without self-joins (Section 2.2 of the paper).
//!
//! A query
//!
//! ```text
//! q(x1, ..., xk) = S1(x̄1), ..., Sℓ(x̄ℓ)
//! ```
//!
//! is *full* (every body variable appears in the head — the head is therefore
//! implicit here) and *without self-joins* (each relation symbol occurs
//! once). Variables are interned to indices `0..k` in first-occurrence
//! order; atoms keep their textual order, which fixes the index `j ∈ [ℓ]`
//! used everywhere else (packings, statistics, share vectors).

use crate::varset::VarSet;
use std::fmt;

/// One atom `S_j(x̄_j)` of a conjunctive query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// Relation symbol, unique within the query.
    name: String,
    /// Variable indices, in the atom's attribute order. Length = arity `a_j`.
    vars: Vec<usize>,
}

impl Atom {
    /// Relation symbol.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Variable indices in attribute order.
    pub fn vars(&self) -> &[usize] {
        &self.vars
    }

    /// Arity `a_j` (number of attributes).
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// The set of variables appearing in this atom.
    pub fn var_set(&self) -> VarSet {
        VarSet::from_iter(self.vars.iter().copied())
    }

    /// Attribute positions (within this atom) holding variables from `x`.
    pub fn positions_of(&self, x: VarSet) -> Vec<usize> {
        (0..self.vars.len())
            .filter(|&pos| x.contains(self.vars[pos]))
            .collect()
    }

    /// Position of variable `v` within this atom, if present. When a
    /// variable repeats, the first position is returned.
    pub fn position_of_var(&self, v: usize) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }
}

/// Errors raised when assembling an ill-formed query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The same relation symbol appears in two atoms (a self-join).
    SelfJoin(String),
    /// An atom has arity zero at construction time.
    EmptyAtom(String),
    /// The query has no atoms.
    NoAtoms,
    /// More than 64 distinct variables.
    TooManyVariables,
    /// Parse error with a human-readable message.
    Parse(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::SelfJoin(s) => write!(f, "relation `{s}` appears twice (self-join)"),
            QueryError::EmptyAtom(s) => write!(f, "atom `{s}` has no variables"),
            QueryError::NoAtoms => write!(f, "query has no atoms"),
            QueryError::TooManyVariables => write!(f, "more than 64 distinct variables"),
            QueryError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A full conjunctive query without self-joins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    name: String,
    var_names: Vec<String>,
    atoms: Vec<Atom>,
}

impl Query {
    /// Build a query from `(relation name, variable names)` pairs. Variables
    /// are interned by name in first-occurrence order.
    pub fn build(name: impl Into<String>, atoms: &[(&str, &[&str])]) -> Result<Query, QueryError> {
        if atoms.is_empty() {
            return Err(QueryError::NoAtoms);
        }
        let mut var_names: Vec<String> = Vec::new();
        let mut out_atoms: Vec<Atom> = Vec::with_capacity(atoms.len());
        for &(rel, vars) in atoms {
            if vars.is_empty() {
                return Err(QueryError::EmptyAtom(rel.to_string()));
            }
            if out_atoms.iter().any(|a| a.name == rel) {
                return Err(QueryError::SelfJoin(rel.to_string()));
            }
            let mut idxs = Vec::with_capacity(vars.len());
            for &v in vars {
                let idx = match var_names.iter().position(|n| n == v) {
                    Some(i) => i,
                    None => {
                        var_names.push(v.to_string());
                        var_names.len() - 1
                    }
                };
                idxs.push(idx);
            }
            out_atoms.push(Atom {
                name: rel.to_string(),
                vars: idxs,
            });
        }
        if var_names.len() > 64 {
            return Err(QueryError::TooManyVariables);
        }
        Ok(Query {
            name: name.into(),
            var_names,
            atoms: out_atoms,
        })
    }

    /// Internal constructor from already-interned parts (used by
    /// [`crate::residual`]). Atoms may have arity zero here: residual queries
    /// legitimately erase all attributes of an atom.
    pub(crate) fn from_parts(name: String, var_names: Vec<String>, atoms: Vec<Atom>) -> Query {
        Query {
            name,
            var_names,
            atoms,
        }
    }

    pub(crate) fn make_atom(name: String, vars: Vec<usize>) -> Atom {
        Atom { name, vars }
    }

    /// Query name (head symbol).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of variables `k`.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of atoms `ℓ`.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Variable name for index `i`.
    pub fn var_name(&self, i: usize) -> &str {
        &self.var_names[i]
    }

    /// Look up a variable index by name.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.var_names.iter().position(|n| n == name)
    }

    /// All atoms in body order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Atom `j`.
    pub fn atom(&self, j: usize) -> &Atom {
        &self.atoms[j]
    }

    /// Atom index by relation name.
    pub fn atom_index(&self, rel: &str) -> Option<usize> {
        self.atoms.iter().position(|a| a.name == rel)
    }

    /// The set of all variables (always `{0..k}`).
    pub fn all_vars(&self) -> VarSet {
        VarSet::from_iter(0..self.num_vars())
    }

    /// Total arity `a = Σ_j a_j`.
    pub fn total_arity(&self) -> usize {
        self.atoms.iter().map(Atom::arity).sum()
    }

    /// Maximum arity over atoms.
    pub fn max_arity(&self) -> usize {
        self.atoms.iter().map(Atom::arity).max().unwrap_or(0)
    }

    /// Indices of atoms containing variable `i` (the hyperedges incident to
    /// node `i`).
    pub fn atoms_with_var(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.atoms
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.vars.contains(&i))
            .map(|(j, _)| j)
    }

    /// `J(x)`: indices of atoms sharing at least one variable with `x`
    /// (Section 4.3).
    pub fn atoms_meeting(&self, x: VarSet) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.var_set().intersect(x).is_empty())
            .map(|(j, _)| j)
            .collect()
    }

    /// True for exactly two atoms sharing at least one variable — the only
    /// shape the §4.1 skew join handles.
    pub fn is_two_atom_join(&self) -> bool {
        match self.atoms.as_slice() {
            [a, b] => !a.var_set().intersect(b.var_set()).is_empty(),
            _ => false,
        }
    }

    /// Structural identity of this query: relation symbols in body order
    /// with their interned variable patterns. The query's own name and the
    /// spelling of its variables are erased — two queries with equal shapes
    /// join the same relations on the same attribute positions and produce
    /// identical answer sets (answers are tuples indexed by variable
    /// position, and interning is first-occurrence order, so equal shapes
    /// force equal position assignments). Plan caches key on this.
    pub fn shape(&self) -> QueryShape {
        QueryShape {
            atoms: self
                .atoms
                .iter()
                .map(|a| (a.name.clone(), a.vars.clone()))
                .collect(),
        }
    }

    /// The canonical representative of this query's [`shape`](Self::shape):
    /// same atoms and variable structure, with the head renamed to `q` and
    /// variables renamed to `v0..v{k-1}` in interning order. Shape-equal
    /// queries have *equal* canonical forms (`==` holds), which lets a plan
    /// built for one run against databases assembled for the other.
    pub fn canonical(&self) -> Query {
        Query {
            name: "q".to_string(),
            var_names: (0..self.var_names.len()).map(|i| format!("v{i}")).collect(),
            atoms: self.atoms.clone(),
        }
    }
}

/// The name-erased structure of a [`Query`]: `(relation symbol, interned
/// variable pattern)` per atom, in body order. `Eq + Hash`, so usable as a
/// cache key; produced by [`Query::shape`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryShape {
    atoms: Vec<(String, Vec<usize>)>,
}

impl QueryShape {
    /// Relation symbols in body order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.atoms.iter().map(|(n, _)| n.as_str())
    }

    /// True if any atom references relation `rel`.
    pub fn references(&self, rel: &str) -> bool {
        self.atoms.iter().any(|(n, _)| n == rel)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.var_names.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ") = ")?;
        for (j, a) in self.atoms.iter().enumerate() {
            if j > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.name)?;
            for (i, &v) in a.vars.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.var_names[v])?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Query {
        Query::build(
            "C3",
            &[
                ("S1", &["x1", "x2"]),
                ("S2", &["x2", "x3"]),
                ("S3", &["x3", "x1"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn interning_and_shape() {
        let q = triangle();
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.total_arity(), 6);
        assert_eq!(q.max_arity(), 2);
        assert_eq!(q.var_name(0), "x1");
        assert_eq!(q.var_index("x3"), Some(2));
        assert_eq!(q.atom(1).vars(), &[1, 2]);
        assert_eq!(q.atom_index("S3"), Some(2));
    }

    #[test]
    fn display_roundtrips_shape() {
        let q = triangle();
        assert_eq!(
            q.to_string(),
            "C3(x1,x2,x3) = S1(x1,x2), S2(x2,x3), S3(x3,x1)"
        );
    }

    #[test]
    fn self_join_rejected() {
        let err = Query::build("q", &[("S", &["x"]), ("S", &["y"])]).unwrap_err();
        assert_eq!(err, QueryError::SelfJoin("S".into()));
    }

    #[test]
    fn empty_atom_rejected() {
        let err = Query::build("q", &[("S", &[])]).unwrap_err();
        assert_eq!(err, QueryError::EmptyAtom("S".into()));
    }

    #[test]
    fn no_atoms_rejected() {
        let err = Query::build("q", &[]).unwrap_err();
        assert_eq!(err, QueryError::NoAtoms);
    }

    #[test]
    fn incidence_queries() {
        let q = triangle();
        assert_eq!(q.atoms_with_var(0).collect::<Vec<_>>(), vec![0, 2]);
        let x = VarSet::singleton(1); // x2 appears in S1, S2
        assert_eq!(q.atoms_meeting(x), vec![0, 1]);
        assert_eq!(q.atoms_meeting(VarSet::EMPTY), Vec::<usize>::new());
    }

    #[test]
    fn shape_erases_names_and_canonical_is_shared() {
        let a = Query::build("Q", &[("S1", &["x", "z"]), ("S2", &["y", "z"])]).unwrap();
        let b = Query::build("P", &[("S1", &["a", "c"]), ("S2", &["b", "c"])]).unwrap();
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(
            a.canonical().to_string(),
            "q(v0,v1,v2) = S1(v0,v1), S2(v2,v1)"
        );
        // Different join structure, same symbols: shapes differ.
        let c = Query::build("Q", &[("S1", &["x", "z"]), ("S2", &["z", "y"])]).unwrap();
        assert_ne!(a.shape(), c.shape());
        assert!(a.shape().references("S2"));
        assert!(!a.shape().references("S3"));
        assert_eq!(a.shape().relation_names().collect::<Vec<_>>(), ["S1", "S2"]);
        // Canonicalization is idempotent.
        assert_eq!(a.canonical().canonical(), a.canonical());
    }

    #[test]
    fn atom_helpers() {
        let q = Query::build("q", &[("R", &["a", "b", "a"])]).unwrap();
        let atom = q.atom(0);
        assert_eq!(atom.arity(), 3);
        assert_eq!(atom.var_set().len(), 2);
        assert_eq!(atom.position_of_var(0), Some(0));
        assert_eq!(atom.positions_of(VarSet::singleton(0)), vec![0, 2]);
    }
}
