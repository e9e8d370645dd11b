//! Relation schemas: a name plus named columns.

/// The schema of a relation: relation name and ordered column names.
///
/// Column *types* are dynamic (any column may hold any [`Value`]); the
/// paper's data model never needs declared types, and mining queries are
/// generated programmatically against known data.
///
/// [`Value`]: crate::Value
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    name: String,
    columns: Vec<String>,
}

impl Schema {
    /// Schema with the given relation and column names.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Schema {
        Schema {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// Schema from owned column names.
    pub fn from_columns(name: impl Into<String>, columns: Vec<String>) -> Schema {
        Schema {
            name: name.into(),
            columns,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Ordered column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// A copy of this schema under a different relation name.
    pub fn renamed(&self, name: impl Into<String>) -> Schema {
        Schema {
            name: name.into(),
            columns: self.columns.clone(),
        }
    }
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name, self.columns.join(", "))
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name, self.columns.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::new("baskets", &["bid", "item"]);
        assert_eq!(s.columns(), ["bid", "item"]);
        assert_eq!(s.arity(), 2);
    }

    #[test]
    fn renamed_keeps_columns() {
        let s = Schema::new("a", &["x"]).renamed("b");
        assert_eq!(s.name(), "b");
        assert_eq!(s.columns(), &["x".to_string()]);
    }

    #[test]
    fn display() {
        assert_eq!(
            Schema::new("causes", &["disease", "symptom"]).to_string(),
            "causes(disease, symptom)"
        );
    }
}
