//! The [`Table`] type: a schema plus equal-length columns.

use crate::{Column, ColumnType, Field, Result, Schema, TableError};

/// An immutable columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Builds a table, validating schema arity, column types, and lengths.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(TableError::SchemaMismatch);
        }
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.ty != c.ty() {
                return Err(TableError::SchemaMismatch);
            }
        }
        let nrows = columns.first().map(Column::len).unwrap_or(0);
        for c in &columns {
            if c.len() != nrows {
                return Err(TableError::RaggedColumns {
                    expected: nrows,
                    found: c.len(),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            nrows,
        })
    }

    /// A zero-row table under `schema` — the shape streaming sources hand
    /// out when the input has no data rows.
    pub fn empty(schema: Schema) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| match f.ty {
                ColumnType::Categorical => Column::Cat(Vec::new()),
                ColumnType::Numeric => Column::Num(Vec::new()),
            })
            .collect();
        Table {
            schema,
            columns,
            nrows: 0,
        }
    }

    /// Builds a table from `(name, column)` pairs, inferring the schema.
    pub fn from_columns(named: Vec<(String, Column)>) -> Result<Self> {
        let fields = named
            .iter()
            .map(|(name, col)| Field::new(name.clone(), col.ty()))
            .collect();
        let schema = Schema::new(fields)?;
        let columns = named.into_iter().map(|(_, c)| c).collect();
        Table::new(schema, columns)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at index `idx`.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::NoSuchColumn(name.to_owned()))?;
        Ok(&self.columns[idx])
    }

    /// Raw size in bytes: the length of the table's CSV rendering
    /// (header + cells + separators). This is the denominator of every
    /// compression ratio reported in the evaluation, matching the paper's
    /// "size of the original dataset".
    pub fn raw_size(&self) -> usize {
        let header: usize = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.len() + 1) // name + comma/newline
            .sum();
        let mut body = 0usize;
        for c in &self.columns {
            match c {
                Column::Cat(v) => {
                    for s in v {
                        body += crate::csv::escaped_len(s) + 1;
                    }
                }
                Column::Num(v) => {
                    for &x in v {
                        body += crate::column::format_number(x).len() + 1;
                    }
                }
            }
        }
        header + body
    }

    /// Approximate resident bytes of the cell payload (8 per number,
    /// string length per categorical cell). Used by the streaming
    /// pipeline's `stream.peak_chunk_bytes` gauge; deliberately counts
    /// content, not allocator capacity, so the figure is deterministic.
    pub fn mem_size(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => v.len() * 8,
                Column::Cat(v) => v.iter().map(|s| s.len() + 24).sum(),
            })
            .sum()
    }

    /// A new table containing the rows at `indexes`, in order.
    pub fn take(&self, indexes: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indexes)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            nrows: indexes.len(),
        }
    }

    /// A new table containing the contiguous row range (clamped to the
    /// table), preserving order — the row-group slicing primitive behind
    /// sharded archives.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Table {
        let start = range.start.min(self.nrows);
        let end = range.end.min(self.nrows).max(start);
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => Column::Num(v[start..end].to_vec()),
                Column::Cat(v) => Column::Cat(v[start..end].to_vec()),
            })
            .collect();
        Table {
            schema: self.schema.clone(),
            columns,
            nrows: end - start,
        }
    }

    /// Concatenates tables with identical schemas, rows in argument order.
    pub fn concat(parts: &[Table]) -> Result<Table> {
        let whole: Vec<(&Table, std::ops::Range<usize>)> =
            parts.iter().map(|t| (t, 0..t.nrows)).collect();
        Table::concat_ranges(&whole)
    }

    /// Concatenates row ranges of tables with identical schemas, in
    /// argument order, copying each selected cell exactly once (ranges
    /// are clamped to their table, like [`slice_rows`](Self::slice_rows)).
    /// Equivalent to slicing every part and concatenating the slices,
    /// without the intermediate copies.
    pub fn concat_ranges(parts: &[(&Table, std::ops::Range<usize>)]) -> Result<Table> {
        let (first, _) = parts.first().ok_or(TableError::SchemaMismatch)?;
        let clamp = |t: &Table, r: &std::ops::Range<usize>| {
            let start = r.start.min(t.nrows);
            start..r.end.min(t.nrows).max(start)
        };
        let nrows: usize = parts.iter().map(|(t, r)| clamp(t, r).len()).sum();
        let mut columns: Vec<Column> = first
            .columns
            .iter()
            .map(|c| match c {
                Column::Num(_) => Column::Num(Vec::with_capacity(nrows)),
                Column::Cat(_) => Column::Cat(Vec::with_capacity(nrows)),
            })
            .collect();
        for (part, range) in parts {
            if part.schema != first.schema {
                return Err(TableError::SchemaMismatch);
            }
            let range = clamp(part, range);
            for (dst, src) in columns.iter_mut().zip(&part.columns) {
                match (dst, src) {
                    (Column::Num(d), Column::Num(s)) => d.extend_from_slice(&s[range.clone()]),
                    (Column::Cat(d), Column::Cat(s)) => d.extend_from_slice(&s[range.clone()]),
                    _ => return Err(TableError::SchemaMismatch),
                }
            }
        }
        Ok(Table {
            schema: first.schema.clone(),
            columns,
            nrows,
        })
    }

    /// A seeded uniform random sample of `size` rows (without replacement;
    /// clamped to the table size). Mirrors the paper's `sample(x, s)`.
    pub fn sample(&self, size: usize, seed: u64) -> Table {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.nrows).collect();
        idx.shuffle(&mut rng);
        idx.truncate(size.min(self.nrows));
        self.take(&idx)
    }

    /// Renders one row as owned cell strings (test/debug aid).
    pub fn row(&self, r: usize) -> Vec<String> {
        self.columns.iter().map(|c| c.format_cell(r)).collect()
    }

    /// Summary counts matching Table 1 of the paper: (categorical, numeric).
    pub fn type_counts(&self) -> (usize, usize) {
        let cat = self
            .schema
            .fields()
            .iter()
            .filter(|f| f.ty == ColumnType::Categorical)
            .count();
        (cat, self.schema.len() - cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        Table::from_columns(vec![
            ("city".into(), Column::Cat(vec!["NYC".into(), "LA".into()])),
            ("pop".into(), Column::Num(vec![8.4, 3.9])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_types() {
        let t = small_table();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.type_counts(), (1, 1));

        let ragged = Table::from_columns(vec![
            ("a".into(), Column::Num(vec![1.0])),
            ("b".into(), Column::Num(vec![1.0, 2.0])),
        ]);
        assert!(matches!(ragged, Err(TableError::RaggedColumns { .. })));

        let schema = Schema::new(vec![Field::categorical("a")]).unwrap();
        let wrong_type = Table::new(schema, vec![Column::Num(vec![1.0])]);
        assert!(matches!(wrong_type, Err(TableError::SchemaMismatch)));
    }

    #[test]
    fn column_by_name() {
        let t = small_table();
        assert!(t.column_by_name("city").is_ok());
        assert!(matches!(
            t.column_by_name("nope"),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn raw_size_counts_csv_bytes() {
        let t = small_table();
        // header: "city,pop\n" = 9; rows: "NYC,8.4\n" = 8, "LA,3.9\n" = 7.
        assert_eq!(t.raw_size(), 9 + 8 + 7);
    }

    #[test]
    fn sample_is_deterministic_and_bounded() {
        let t = Table::from_columns(vec![(
            "x".into(),
            Column::Num((0..100).map(f64::from).collect()),
        )])
        .unwrap();
        let a = t.sample(10, 7);
        let b = t.sample(10, 7);
        assert_eq!(a, b);
        assert_eq!(a.nrows(), 10);
        // Requesting more rows than exist clamps.
        assert_eq!(t.sample(1000, 7).nrows(), 100);
        // Different seed, (almost surely) different selection.
        let c = t.sample(10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn slice_rows_clamps_and_preserves_order() {
        let t = Table::from_columns(vec![
            ("x".into(), Column::Num((0..10).map(f64::from).collect())),
            (
                "s".into(),
                Column::Cat((0..10).map(|i| format!("v{i}")).collect()),
            ),
        ])
        .unwrap();
        let s = t.slice_rows(3..7);
        assert_eq!(s.nrows(), 4);
        assert_eq!(s.row(0), vec!["3".to_string(), "v3".to_string()]);
        assert_eq!(s.row(3), vec!["6".to_string(), "v6".to_string()]);
        assert_eq!(t.slice_rows(8..100).nrows(), 2);
        assert_eq!(t.slice_rows(20..30).nrows(), 0);
        #[allow(clippy::reversed_empty_ranges)]
        let rev = t.slice_rows(7..3);
        assert_eq!(rev.nrows(), 0);
    }

    #[test]
    fn concat_ranges_copies_exactly_the_selected_rows() {
        let t = crate::gen::census_like(50, 3);
        let u = crate::gen::census_like(20, 4);
        let cases: [&[(&Table, std::ops::Range<usize>)]; 4] = [
            &[(&t, 0..50)],
            &[(&t, 10..12)],
            &[(&t, 45..50), (&u, 0..20), (&t, 0..3)],
            &[(&t, 40..99), (&u, 7..7), (&u, 18..30)],
        ];
        for parts in cases {
            // Reference: the selected rows rendered one part at a time.
            let mut want = String::new();
            crate::csv::write_csv_header(t.schema(), &mut want);
            for (p, r) in parts {
                crate::csv::write_csv_rows(p, r.clone(), &mut want);
            }
            let got = Table::concat_ranges(parts).unwrap();
            assert_eq!(crate::csv::write_csv(&got), want);
        }
        let other = crate::gen::corel_like(5, 1);
        assert!(Table::concat_ranges(&[(&t, 0..1), (&other, 0..1)]).is_err());
        assert!(Table::concat_ranges(&[]).is_err());
    }

    #[test]
    fn concat_rebuilds_sliced_table() {
        let t = Table::from_columns(vec![
            ("x".into(), Column::Num((0..9).map(f64::from).collect())),
            (
                "s".into(),
                Column::Cat((0..9).map(|i| format!("v{i}")).collect()),
            ),
        ])
        .unwrap();
        let parts: Vec<Table> = (0..3).map(|i| t.slice_rows(i * 3..i * 3 + 3)).collect();
        assert_eq!(Table::concat(&parts).unwrap(), t);
        assert!(Table::concat(&[]).is_err());
        let other = small_table();
        assert!(Table::concat(&[t, other]).is_err());
    }

    #[test]
    fn take_preserves_schema() {
        let t = small_table();
        let sub = t.take(&[1]);
        assert_eq!(sub.nrows(), 1);
        assert_eq!(sub.row(0), vec!["LA".to_string(), "3.9".to_string()]);
        assert_eq!(sub.schema(), t.schema());
    }
}
