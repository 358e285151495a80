//! Regular meshes.
//!
//! Stand-in for `queen_4147` (a 3D structural problem): a single connected
//! component with high, uniform degree. §VI-E(b) uses it to show LACC
//! performing well on denser graphs despite having no vector sparsity to
//! exploit.

use crate::{BuildError, CsrGraph, EdgeList, Vid};

/// A `rows × cols` 4-neighbor grid.
pub fn mesh_2d(rows: usize, cols: usize) -> CsrGraph {
    let n = rows * cols;
    let mut el = EdgeList::new(n);
    let id = |r: usize, c: usize| (r * cols + c) as Vid;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                el.push(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                el.push(id(r, c), id(r + 1, c));
            }
        }
    }
    CsrGraph::from_edges(el)
}

/// An `x × y × z` grid where each vertex connects to every vertex in its
/// 3×3×3 neighborhood (26-connectivity), giving queen-like average degree
/// in the tens.
pub fn mesh_3d(x: usize, y: usize, z: usize) -> CsrGraph {
    try_mesh_3d(x, y, z).unwrap_or_else(|e| panic!("{e}"))
}

/// [`mesh_3d`], returning a [`BuildError`] where the host cannot hold the
/// graph.
pub fn try_mesh_3d(x: usize, y: usize, z: usize) -> Result<CsrGraph, BuildError> {
    let n = x * y * z;
    let mut el = EdgeList::new(n);
    // Each vertex has at most 13 forward neighbors.
    el.try_reserve(n.saturating_mul(13))?;
    let id = |i: usize, j: usize, k: usize| (i * y * z + j * z + k) as Vid;
    for i in 0..x {
        for j in 0..y {
            for k in 0..z {
                for di in 0..=1usize {
                    for dj in -(1isize)..=1 {
                        for dk in -(1isize)..=1 {
                            // Enumerate each undirected pair once: strictly
                            // "forward" neighbors in lexicographic order.
                            if (di, dj, dk) <= (0, 0, 0) {
                                continue;
                            }
                            let (ni, nj, nk) =
                                (i as isize + di as isize, j as isize + dj, k as isize + dk);
                            if ni < 0 || nj < 0 || nk < 0 {
                                continue;
                            }
                            let (ni, nj, nk) = (ni as usize, nj as usize, nk as usize);
                            if ni < x && nj < y && nk < z {
                                el.push(id(i, j, k), id(ni, nj, nk));
                            }
                        }
                    }
                }
            }
        }
    }
    CsrGraph::try_from_edges(el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DisjointSets;

    fn num_components(g: &CsrGraph) -> usize {
        let mut ds = DisjointSets::new(g.num_vertices());
        for (u, v) in g.edges() {
            ds.union(u, v);
        }
        ds.num_sets()
    }

    #[test]
    fn mesh2d_shape() {
        let g = mesh_2d(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // (rows*(cols-1)) + (cols*(rows-1)) undirected edges.
        assert_eq!(g.num_undirected_edges(), 3 * 3 + 4 * 2);
        assert_eq!(num_components(&g), 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn mesh2d_degenerate() {
        assert_eq!(mesh_2d(1, 1).num_directed_edges(), 0);
        let line = mesh_2d(1, 5);
        assert_eq!(line.num_undirected_edges(), 4);
    }

    #[test]
    fn mesh3d_connected_and_dense() {
        let g = mesh_3d(4, 4, 4);
        assert_eq!(g.num_vertices(), 64);
        assert_eq!(num_components(&g), 1);
        // Interior vertices have 26 neighbors.
        let interior = 16 + 4 + 1; // vertex (1,1,1)
        assert_eq!(g.degree(interior), 26);
        assert!(g.is_symmetric());
    }

    #[test]
    fn a_mesh_past_usize_is_refused() {
        let e = try_mesh_3d(usize::MAX / 4, 2, 2).unwrap_err();
        assert!(matches!(e, BuildError::OutOfMemory { .. }), "{e}");
    }

    #[test]
    fn mesh3d_corner_degree() {
        let g = mesh_3d(3, 3, 3);
        // Corner (0,0,0) sees the 2x2x2 block minus itself.
        assert_eq!(g.degree(0), 7);
    }
}
