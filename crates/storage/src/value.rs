//! The scalar value type stored in tuples.

use crate::symbol::Symbol;

/// A scalar database value: a 64-bit integer or an interned string.
///
/// Two-word `Copy` type so tuples copy with `memcpy` and hash joins never
/// chase pointers. The paper's data model needs exactly these: basket
/// and document ids, counts and weights are integers; items, words,
/// symptoms, medicines, diseases are strings.
///
/// Ordering is total: all integers sort before all symbols, integers
/// numerically, symbols lexicographically (see [`Symbol`]'s `Ord`).
/// Cross-type comparisons in arithmetic subgoals are therefore
/// well-defined, though flocks in practice compare like with like.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// Interned string.
    Sym(Symbol),
}

impl Value {
    /// Integer value.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// Interned string value.
    pub fn str(s: &str) -> Value {
        Value::Sym(Symbol::intern(s))
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Sym(_) => None,
        }
    }

    /// Render the value the way it appears in query text: integers bare,
    /// strings unquoted (Datalog constants in this system are lowercase
    /// identifiers or quoted strings; display uses the raw string).
    pub fn render(self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Sym(s) => f.write_str(s.as_str()),
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Sym(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<Symbol> for Value {
    fn from(s: Symbol) -> Self {
        Value::Sym(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::int(7).as_int(), Some(7));
        assert_eq!(Value::str("x"), Value::Sym(Symbol::intern("x")));
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::int(1) < Value::int(2));
        assert!(Value::str("apple") < Value::str("banana"));
    }

    #[test]
    fn ints_sort_before_symbols() {
        assert!(Value::int(i64::MAX) < Value::str("a"));
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Value::int(-3).to_string(), "-3");
        assert_eq!(Value::str("beer").to_string(), "beer");
    }

    #[test]
    fn value_is_two_words() {
        assert!(std::mem::size_of::<Value>() <= 2 * std::mem::size_of::<usize>());
    }
}
