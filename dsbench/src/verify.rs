//! Output checks. Each returns `Err` with a short reason instead of
//! panicking, so a wrong output counts as one failed operation.

use ds_table::{Column, Table};

/// Per-column absolute error bound for numeric columns of `reference`
/// under relative threshold `error` (threshold × column range, with the
/// float slack the repository's own contract tests allow); 0 for
/// categorical columns.
pub fn numeric_bounds(reference: &Table, error: f64) -> Vec<f64> {
    reference
        .columns()
        .iter()
        .map(|c| match c {
            Column::Num(v) => {
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let range = if v.is_empty() { 0.0 } else { hi - lo };
                error * range * (1.0 + 1e-7) + 1e-9
            }
            Column::Cat(_) => 0.0,
        })
        .collect()
}

/// Checks `got` against `expected`: same shape and column types,
/// categorical cells equal, numeric cells within `bounds[col]` plus
/// `text_slack` × max(1, |value|) (the rounding of a value that went
/// through the CSV writer's six fractional digits).
pub fn check_table(
    expected: &Table,
    got: &Table,
    bounds: &[f64],
    text_slack: f64,
) -> Result<(), String> {
    if expected.nrows() != got.nrows() || expected.ncols() != got.ncols() {
        return Err(format!(
            "shape {}x{} != expected {}x{}",
            got.nrows(),
            got.ncols(),
            expected.nrows(),
            expected.ncols()
        ));
    }
    for (c, (a, b)) in expected.columns().iter().zip(got.columns()).enumerate() {
        match (a, b) {
            (Column::Cat(x), Column::Cat(y)) => {
                if let Some(r) = (0..x.len()).find(|&r| x[r] != y[r]) {
                    return Err(format!(
                        "column {c} row {r}: {:?} != expected {:?}",
                        y[r], x[r]
                    ));
                }
            }
            (Column::Num(x), Column::Num(y)) => {
                let bound = bounds.get(c).copied().unwrap_or(0.0);
                for (r, (u, v)) in x.iter().zip(y).enumerate() {
                    let slack = text_slack * u.abs().max(1.0);
                    // Written so that a NaN on either side fails.
                    if (u - v).abs() <= bound + slack {
                        continue;
                    }
                    return Err(format!(
                        "column {c} row {r}: {v} is more than {bound} from {u}"
                    ));
                }
            }
            _ => return Err(format!("column {c} changed type")),
        }
    }
    Ok(())
}

/// Checks that two byte strings are equal, naming the first difference.
pub fn check_bytes(expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let at = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(got.len()));
    Err(format!(
        "{} bytes differ from the expected {} at offset {at}",
        got.len(),
        expected.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(nums: Vec<f64>, cats: Vec<&str>) -> Table {
        Table::from_columns(vec![
            ("n".into(), Column::Num(nums)),
            (
                "c".into(),
                Column::Cat(cats.into_iter().map(String::from).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn bounds_follow_the_column_range() {
        let a = t(vec![0.0, 10.0], vec!["x", "y"]);
        let b = numeric_bounds(&a, 0.01);
        assert!((b[0] - 0.1).abs() < 1e-6);
        assert_eq!(b[1], 0.0);
    }

    #[test]
    fn catches_each_kind_of_mismatch() {
        let a = t(vec![0.0, 10.0], vec!["x", "y"]);
        let bounds = numeric_bounds(&a, 0.01);
        assert!(check_table(&a, &t(vec![0.05, 9.95], vec!["x", "y"]), &bounds, 0.0).is_ok());
        assert!(check_table(&a, &t(vec![0.2, 10.0], vec!["x", "y"]), &bounds, 0.0).is_err());
        assert!(check_table(&a, &t(vec![0.0, 10.0], vec!["x", "z"]), &bounds, 0.0).is_err());
        assert!(check_table(&a, &t(vec![f64::NAN, 10.0], vec!["x", "y"]), &bounds, 0.0).is_err());
        assert!(check_table(&a, &a.slice_rows(0..1), &bounds, 0.0).is_err());
        assert!(check_bytes(b"abc", b"abd").is_err());
        assert!(check_bytes(b"abc", b"abc").is_ok());
    }
}
