//! Named `(x, y)` data series.
//!
//! Every experiment in the reproduction produces one or more series — e.g.
//! "inconsistency ratio of SS+ER versus mean state lifetime".  A [`Series`] is
//! the common exchange format between the experiment code, the report
//! generator, the benches, and the integration tests that assert the *shape*
//! of the paper's figures (orderings, crossovers, monotonicity).

/// A single data point: x value, y value, and an optional error half-width
/// (simulation points carry 95% confidence half-widths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Independent variable (timer value, loss rate, session length, ...).
    pub x: f64,
    /// Dependent variable (inconsistency ratio, message rate, cost, ...).
    pub y: f64,
    /// Optional error half-width around `y`.
    pub err: Option<f64>,
}

impl Point {
    /// Point without error information (analytic results).
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y, err: None }
    }

    /// Point carrying a confidence half-width (simulation results).
    pub fn with_error(x: f64, y: f64, err: f64) -> Self {
        Self {
            x,
            y,
            err: Some(err),
        }
    }
}

/// A named sequence of points, e.g. the SS curve of Figure 4(a).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Label of the series (typically the protocol name).
    pub label: String,
    /// Points in the order they were generated (normally sorted by `x`).
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Creates a series from `(x, y)` pairs.
    pub fn from_xy(label: impl Into<String>, xy: impl IntoIterator<Item = (f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points: xy.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, point: Point) {
        self.points.push(point);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The x values in order.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }

    /// Maximum y value (`None` when empty).
    pub fn y_max(&self) -> Option<f64> {
        self.points.iter().map(|p| p.y).fold(None, |acc, y| {
            Some(match acc {
                None => y,
                Some(m) => m.max(y),
            })
        })
    }

    /// Minimum y value (`None` when empty).
    pub fn y_min(&self) -> Option<f64> {
        self.points.iter().map(|p| p.y).fold(None, |acc, y| {
            Some(match acc {
                None => y,
                Some(m) => m.min(y),
            })
        })
    }

    /// x value of the minimum y (`None` when empty); used to locate optimal
    /// operating points such as the cost-minimizing refresh timer of Fig. 7.
    pub fn argmin_y(&self) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| a.y.total_cmp(&b.y))
            .map(|p| p.x)
    }

    /// Whether the y values are non-increasing along the series (within a
    /// relative tolerance), e.g. inconsistency vs. session length in Fig. 4(a).
    pub fn is_non_increasing(&self, tol: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].y <= w[0].y * (1.0 + tol) + tol)
    }

    /// Whether the y values are non-decreasing along the series.
    pub fn is_non_decreasing(&self, tol: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].y + tol + w[0].y * tol >= w[0].y)
    }

    /// Whether this series lies entirely at-or-below `other` (pointwise on
    /// shared indices) — the workhorse assertion for "protocol A beats
    /// protocol B everywhere" statements.
    pub fn dominates_below(&self, other: &Series, tol: f64) -> bool {
        self.points
            .iter()
            .zip(other.points.iter())
            .all(|(a, b)| a.y <= b.y * (1.0 + tol) + tol)
    }
}

/// Whether two x values should be treated as the same grid point.
fn x_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// A collection of series sharing the same x axis, i.e. one paper sub-figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesSet {
    /// Title of the figure (e.g. `"Fig 4(a): inconsistency vs lifetime"`).
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
    /// Label of the y axis.
    pub y_label: String,
    /// The series, typically one per protocol.
    pub series: Vec<Series>,
}

impl SeriesSet {
    /// Creates an empty set with axis metadata.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Finds a series by label.
    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Labels in insertion order.
    pub fn labels(&self) -> Vec<&str> {
        self.series.iter().map(|s| s.label.as_str()).collect()
    }

    /// The sorted union of x values across all series (deduplicated within a
    /// small relative tolerance).  Series may use different x grids — e.g.
    /// the analytic curves of Figures 11–12 use a fine grid while the
    /// simulated points use a coarse one — and rows are matched by x value.
    fn x_grid(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(f64::total_cmp);
        let mut grid: Vec<f64> = Vec::with_capacity(xs.len());
        for x in xs {
            if grid.last().is_none_or(|last| !x_close(*last, x)) {
                grid.push(x);
            }
        }
        grid
    }

    /// Renders the set as an aligned plain-text table (x column followed by
    /// one column per series), the format printed by the `repro` binary.
    /// Rows are keyed by x value; series without a point at a given x show
    /// `-`.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!("# x: {}   y: {}\n", self.x_label, self.y_label));
        out.push_str(&format!("{:>14}", "x"));
        for s in &self.series {
            out.push_str(&format!(" {:>14}", s.label));
        }
        out.push('\n');
        for x in self.x_grid() {
            out.push_str(&format!("{x:>14.6}"));
            for s in &self.series {
                match s.points.iter().find(|p| x_close(p.x, x)) {
                    Some(p) => out.push_str(&format!(" {:>14.6}", p.y)),
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the set as CSV with a header row.  Rows are keyed by x value,
    /// like [`Self::to_table`].
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push('x');
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label);
            if s.points.iter().any(|p| p.err.is_some()) {
                out.push(',');
                out.push_str(&format!("{}_err", s.label));
            }
        }
        out.push('\n');
        for x in self.x_grid() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                let has_err = s.points.iter().any(|p| p.err.is_some());
                match s.points.iter().find(|p| x_close(p.x, x)) {
                    Some(p) => {
                        out.push_str(&format!(",{}", p.y));
                        if has_err {
                            out.push_str(&format!(",{}", p.err.unwrap_or(0.0)));
                        }
                    }
                    None => {
                        out.push(',');
                        if has_err {
                            out.push(',');
                        }
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> Series {
        Series::from_xy("SS", [(1.0, 0.5), (2.0, 0.3), (3.0, 0.1)])
    }

    #[test]
    fn series_accessors() {
        let s = sample_series();
        assert_eq!(s.len(), 3);
        assert_eq!(s.xs(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.y_max(), Some(0.5));
        assert_eq!(s.y_min(), Some(0.1));
        assert_eq!(s.argmin_y(), Some(3.0));
    }

    #[test]
    fn monotonicity_checks() {
        let s = sample_series();
        assert!(s.is_non_increasing(1e-9));
        assert!(!s.is_non_decreasing(1e-9));
        let up = Series::from_xy("HS", [(1.0, 0.1), (2.0, 0.2), (3.0, 0.2)]);
        assert!(up.is_non_decreasing(1e-9));
    }

    #[test]
    fn dominance_check() {
        let hi = sample_series();
        let lo = Series::from_xy("SS+ER", [(1.0, 0.4), (2.0, 0.2), (3.0, 0.05)]);
        assert!(lo.dominates_below(&hi, 1e-9));
        assert!(!hi.dominates_below(&lo, 1e-9));
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = Series::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.y_max(), None);
        assert_eq!(s.argmin_y(), None);
        assert!(s.is_non_increasing(0.0));
    }

    #[test]
    fn series_set_table_and_csv() {
        let mut set = SeriesSet::new("Fig X", "timer (s)", "inconsistency");
        set.push(sample_series());
        set.push(Series::from_xy(
            "HS",
            [(1.0, 0.05), (2.0, 0.04), (3.0, 0.03)],
        ));
        let table = set.to_table();
        assert!(table.contains("Fig X"));
        assert!(table.contains("SS"));
        assert!(table.contains("HS"));
        assert!(table.lines().count() >= 6);
        let csv = set.to_csv();
        assert!(csv.starts_with("x,SS,HS"));
        assert_eq!(csv.lines().count(), 4);
        assert_eq!(set.get("HS").unwrap().len(), 3);
        assert_eq!(set.labels(), vec!["SS", "HS"]);
    }

    #[test]
    fn csv_includes_error_columns_when_present() {
        let mut set = SeriesSet::new("f", "x", "y");
        let mut s = Series::new("sim");
        s.push(Point::with_error(1.0, 0.5, 0.01));
        set.push(s);
        let csv = set.to_csv();
        assert!(csv.lines().next().unwrap().contains("sim_err"));
        assert!(csv.contains("0.01"));
    }
}
