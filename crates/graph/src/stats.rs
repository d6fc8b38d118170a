//! Degree statistics for generated and loaded graphs.
//!
//! The benchmark harness prints a Table V-style summary (vertices,
//! edges, average degree, max degree) for every stand-in so the reader
//! can compare against the paper's dataset table; the test suite uses
//! the skewness measures to verify that RMAT stand-ins are power-law-ish
//! while Erdős–Rényi graphs are not.

use fusedmm_sparse::csr::Csr;

/// Summary statistics of a graph's degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices (rows).
    pub nvertices: usize,
    /// Number of stored directed edges (nnz).
    pub nedges: usize,
    /// Average out-degree (`nnz / n`).
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Coefficient of variation of the degree sequence (stddev / mean);
    /// ≈ small for Erdős–Rényi, large for power-law graphs.
    pub degree_cv: f64,
}

impl GraphStats {
    /// Compute statistics for a CSR adjacency matrix.
    pub fn compute(a: &Csr) -> Self {
        let n = a.nrows();
        let degrees = a.row_degrees();
        let nnz = a.nnz();
        let mean = if n == 0 { 0.0 } else { nnz as f64 / n as f64 };
        let var = if n == 0 {
            0.0
        } else {
            degrees.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64
        };
        GraphStats {
            nvertices: n,
            nedges: nnz,
            avg_degree: mean,
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            isolated: degrees.iter().filter(|&&d| d == 0).count(),
            degree_cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        }
    }

    /// A one-line Table V-style row: `name  |V|  |E|  avg  max`.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "{:<12} {:>10} {:>12} {:>10.2} {:>10}",
            name, self.nvertices, self.nedges, self.avg_degree, self.max_degree
        )
    }
}

/// Histogram of degrees in log-2 buckets (bucket `i` counts vertices
/// with degree in `[2^i, 2^{i+1})`; bucket 0 also counts degree 1,
/// degree 0 is excluded). Power-law graphs show a long, slowly decaying
/// tail across buckets. Thin wrapper over
/// [`Csr::degree_histogram_log2`], the shared degree-scan helper also
/// used by the metrics registry.
pub fn degree_histogram_log2(a: &Csr) -> Vec<usize> {
    a.degree_histogram_log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erdos::erdos_renyi;
    use crate::rmat::{rmat, RmatConfig};
    use fusedmm_sparse::coo::{Coo, Dedup};

    #[test]
    fn stats_on_tiny_graph() {
        let mut c = Coo::new(4, 4);
        c.push(0, 1, 1.0);
        c.push(0, 2, 1.0);
        c.push(1, 0, 1.0);
        let g = c.to_csr(Dedup::Sum);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nvertices, 4);
        assert_eq!(s.nedges, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated, 2);
        assert!((s.avg_degree - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rmat_more_skewed_than_erdos() {
        let r = GraphStats::compute(&rmat(&RmatConfig::new(2048, 16000)));
        let e = GraphStats::compute(&erdos_renyi(2048, 16000, 1));
        assert!(
            r.degree_cv > 2.0 * e.degree_cv,
            "rmat cv {} vs er cv {}",
            r.degree_cv,
            e.degree_cv
        );
    }

    #[test]
    fn histogram_buckets_count_all_nonisolated() {
        let g = erdos_renyi(100, 400, 2);
        let hist = degree_histogram_log2(&g);
        let covered: usize = hist.iter().sum();
        let s = GraphStats::compute(&g);
        assert_eq!(covered, 100 - s.isolated);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // one vertex of degree 1 (bucket 0), one of degree 4 (bucket 2)
        let mut c = Coo::new(6, 6);
        c.push(0, 1, 1.0);
        for v in 1..5 {
            c.push(5, v, 1.0);
        }
        let hist = degree_histogram_log2(&c.to_csr(Dedup::Sum));
        assert_eq!(hist, vec![1, 0, 1]);
    }

    #[test]
    fn table_row_formats() {
        let g = erdos_renyi(10, 20, 3);
        let row = GraphStats::compute(&g).table_row("test");
        assert!(row.contains("test"));
        assert!(row.contains("40")); // 20 undirected edges = 40 nnz
    }
}
