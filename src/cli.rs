//! Command-line front end: parse arguments and CSV point files for the
//! `mpc-clustering` binary. Kept dependency-free (no clap) and fully unit
//! tested.

use std::collections::HashMap;

use crate::metric::PointSet;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CliCommand {
    /// Subcommand: `kcenter`, `diversity`, `ksupplier`, or `gen`.
    pub command: String,
    /// `--flag value` pairs.
    pub options: HashMap<String, String>,
}

/// Parse errors with user-facing messages.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` without a value.
    MissingValue(String),
    /// An argument that is neither a subcommand nor a flag.
    Unexpected(String),
    /// A flag value failed to parse.
    BadValue {
        flag: String,
        value: String,
        expected: &'static str,
    },
    /// Required flag absent.
    MissingFlag(String),
    /// CSV parse failure.
    BadCsv { line: usize, message: String },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingCommand => write!(f, "no command given; try `--help`"),
            Self::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            Self::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            Self::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "{flag} = {value:?} is not a valid {expected}")
            }
            Self::MissingFlag(flag) => write!(f, "required flag {flag} is missing"),
            Self::BadCsv { line, message } => write!(f, "CSV line {line}: {message}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses `args` (without the program name) into a command + options.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliCommand, CliError> {
    let mut it = args.into_iter().peekable();
    let command = it.next().ok_or(CliError::MissingCommand)?;
    if command.starts_with("--") && command != "--help" {
        return Err(CliError::Unexpected(command));
    }
    let mut options = HashMap::new();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| CliError::MissingValue(arg.clone()))?;
            options.insert(flag.to_string(), value);
        } else {
            return Err(CliError::Unexpected(arg));
        }
    }
    Ok(CliCommand { command, options })
}

impl CliCommand {
    /// A required typed flag.
    pub fn required<T: std::str::FromStr>(
        &self,
        flag: &str,
        expected: &'static str,
    ) -> Result<T, CliError> {
        let raw = self
            .options
            .get(flag)
            .ok_or_else(|| CliError::MissingFlag(format!("--{flag}")))?;
        raw.parse().map_err(|_| CliError::BadValue {
            flag: format!("--{flag}"),
            value: raw.clone(),
            expected,
        })
    }

    /// An optional typed flag with default.
    pub fn optional<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, CliError> {
        match self.options.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| CliError::BadValue {
                flag: format!("--{flag}"),
                value: raw.clone(),
                expected,
            }),
        }
    }
}

/// Parses CSV text (one point per line, comma-separated coordinates,
/// optional header starting with a non-numeric token, blank lines and
/// `#` comments skipped) into a [`PointSet`]. Coordinates must be finite:
/// `NaN` and `inf` parse as numbers but are rejected with
/// [`CliError::BadCsv`].
pub fn parse_points_csv(text: &str) -> Result<PointSet, CliError> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        let parsed: Result<Vec<f64>, _> = cells.iter().map(|c| c.parse::<f64>()).collect();
        match parsed {
            Ok(coords) => {
                if let Some(c) = coords.iter().find(|c| !c.is_finite()) {
                    return Err(CliError::BadCsv {
                        line: idx + 1,
                        message: format!("non-finite coordinate {c}"),
                    });
                }
                if let Some(first) = rows.first() {
                    if coords.len() != first.len() {
                        return Err(CliError::BadCsv {
                            line: idx + 1,
                            message: format!(
                                "expected {} coordinates, found {}",
                                first.len(),
                                coords.len()
                            ),
                        });
                    }
                }
                rows.push(coords);
            }
            Err(_) if rows.is_empty() => continue, // header line
            Err(e) => {
                return Err(CliError::BadCsv {
                    line: idx + 1,
                    message: e.to_string(),
                });
            }
        }
    }
    if rows.is_empty() {
        return Err(CliError::BadCsv {
            line: 0,
            message: "no data rows".into(),
        });
    }
    Ok(PointSet::from_rows(&rows))
}

/// Renders a whole point set as headerless coordinate CSV (the format
/// [`parse_points_csv`] reads back).
pub fn pointset_to_csv(points: &PointSet) -> String {
    let mut out = String::new();
    for id in points.ids() {
        let row: Vec<String> = points.coords(id).iter().map(|c| c.to_string()).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Renders selected point ids (with coordinates) as CSV.
pub fn points_to_csv(points: &PointSet, ids: &[crate::metric::PointId]) -> String {
    let mut out = String::from("id");
    for d in 0..points.dim() {
        out.push_str(&format!(",x{d}"));
    }
    out.push('\n');
    for &id in ids {
        out.push_str(&id.0.to_string());
        for c in points.coords(id) {
            out.push_str(&format!(",{c}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::PointId;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let cmd = parse_args(args(&["kcenter", "--k", "5", "--input", "pts.csv"])).unwrap();
        assert_eq!(cmd.command, "kcenter");
        assert_eq!(cmd.required::<usize>("k", "integer").unwrap(), 5);
        assert_eq!(cmd.optional::<usize>("m", 8, "integer").unwrap(), 8);
        assert_eq!(cmd.options["input"], "pts.csv");
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert_eq!(parse_args(args(&[])), Err(CliError::MissingCommand));
        assert!(matches!(
            parse_args(args(&["kcenter", "--k"])),
            Err(CliError::MissingValue(_))
        ));
        assert!(matches!(
            parse_args(args(&["kcenter", "stray"])),
            Err(CliError::Unexpected(_))
        ));
        let cmd = parse_args(args(&["kcenter", "--k", "abc"])).unwrap();
        assert!(matches!(
            cmd.required::<usize>("k", "integer"),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            cmd.required::<String>("input", "path"),
            Err(CliError::MissingFlag(_))
        ));
    }

    #[test]
    fn parses_csv_with_header_and_comments() {
        let csv = "x,y\n# a comment\n1.0, 2.0\n\n3.5,4.5\n";
        let ps = parse_points_csv(csv).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.coords(PointId(1)), &[3.5, 4.5]);
    }

    #[test]
    fn rejects_ragged_and_empty_csv() {
        assert!(matches!(
            parse_points_csv("1.0,2.0\n3.0\n"),
            Err(CliError::BadCsv { line: 2, .. })
        ));
        assert!(matches!(
            parse_points_csv("x,y\n"),
            Err(CliError::BadCsv { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for bad in ["NaN", "inf", "-inf"] {
            let csv = format!("x,y\n1.0,2.0\n{bad},0.1\n");
            assert!(
                matches!(
                    parse_points_csv(&csv),
                    Err(CliError::BadCsv { line: 3, .. })
                ),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn pointset_csv_round_trips_through_parser() {
        let ps = parse_points_csv("1.5,2.5\n3.0,4.0\n").unwrap();
        let back = parse_points_csv(&pointset_to_csv(&ps)).unwrap();
        assert_eq!(ps, back);
    }

    #[test]
    fn csv_round_trip() {
        let ps = parse_points_csv("1.5,2.5\n3.0,4.0\n").unwrap();
        let out = points_to_csv(&ps, &[PointId(1)]);
        assert_eq!(out, "id,x0,x1\n1,3,4\n");
    }
}
