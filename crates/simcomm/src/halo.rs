//! 3-D halo-exchange geometry: domain decomposition, neighbour ranks, and
//! pack/unpack index lists.
//!
//! RAJAPerf's halo kernels operate on a 3-D box of owned cells surrounded by
//! a ghost layer of width `halo_width`. For each of the 26 neighbour
//! directions the kernels need two index lists into the *extended* grid
//! (owned + ghosts): the owned boundary cells to pack into the outgoing
//! message, and the ghost cells to unpack the incoming message into. This
//! module computes those lists, plus a periodic cartesian rank decomposition
//! (`MPI_Cart_create`-style) for resolving neighbour ranks.

/// All 26 non-zero direction offsets of a 3×3×3 stencil, in a fixed
/// deterministic order (z-major). The order is point-symmetric: entry
/// `25 - d` is the opposite of entry `d`.
pub fn directions() -> Vec<[i32; 3]> {
    let mut dirs = Vec::with_capacity(26);
    for dz in -1..=1i32 {
        for dy in -1..=1i32 {
            for dx in -1..=1i32 {
                if dx != 0 || dy != 0 || dz != 0 {
                    dirs.push([dx, dy, dz]);
                }
            }
        }
    }
    dirs
}

/// One neighbour exchange: direction, and pack/unpack index lists into the
/// extended (ghosted) grid.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Neighbour direction, each component in {-1, 0, 1}.
    pub offset: [i32; 3],
    /// Linear indices (into the extended grid) of owned boundary cells to
    /// send toward `offset`.
    pub pack_list: Vec<usize>,
    /// Linear indices of ghost cells receiving data from the neighbour at
    /// `offset`.
    pub unpack_list: Vec<usize>,
}

/// Halo geometry for one rank's box.
#[derive(Debug, Clone)]
pub struct HaloGeometry {
    /// Owned cells per dimension.
    pub extent: [usize; 3],
    /// Ghost-layer width.
    pub halo_width: usize,
    /// Extended grid dimensions (`extent + 2 * halo_width`).
    pub total: [usize; 3],
    /// The 26 neighbour exchanges in [`directions`] order.
    pub exchanges: Vec<Exchange>,
}

impl HaloGeometry {
    /// Build the geometry for a box of `extent` owned cells with ghost
    /// layers of `halo_width`.
    ///
    /// # Panics
    /// Panics if any extent is smaller than the halo width (the pack slabs
    /// would overlap).
    pub fn new(extent: [usize; 3], halo_width: usize) -> HaloGeometry {
        assert!(halo_width > 0, "halo width must be positive");
        assert!(
            extent.iter().all(|&e| e >= halo_width),
            "extent {extent:?} must be >= halo width {halo_width}"
        );
        let total = [
            extent[0] + 2 * halo_width,
            extent[1] + 2 * halo_width,
            extent[2] + 2 * halo_width,
        ];
        let lin = |x: usize, y: usize, z: usize| (z * total[1] + y) * total[0] + x;
        // Per-dimension index ranges for pack (owned boundary slab) and
        // unpack (ghost slab) in a given direction component.
        let pack_range = |dir: i32, ext: usize| -> std::ops::Range<usize> {
            match dir {
                -1 => halo_width..2 * halo_width,
                0 => halo_width..halo_width + ext,
                1 => halo_width + ext - halo_width..halo_width + ext,
                _ => unreachable!(),
            }
        };
        let unpack_range = |dir: i32, ext: usize| -> std::ops::Range<usize> {
            match dir {
                -1 => 0..halo_width,
                0 => halo_width..halo_width + ext,
                1 => halo_width + ext..halo_width + ext + halo_width,
                _ => unreachable!(),
            }
        };
        let exchanges = directions()
            .into_iter()
            .map(|offset| {
                let mut pack_list = Vec::new();
                let mut unpack_list = Vec::new();
                for z in pack_range(offset[2], extent[2]) {
                    for y in pack_range(offset[1], extent[1]) {
                        for x in pack_range(offset[0], extent[0]) {
                            pack_list.push(lin(x, y, z));
                        }
                    }
                }
                for z in unpack_range(offset[2], extent[2]) {
                    for y in unpack_range(offset[1], extent[1]) {
                        for x in unpack_range(offset[0], extent[0]) {
                            unpack_list.push(lin(x, y, z));
                        }
                    }
                }
                Exchange {
                    offset,
                    pack_list,
                    unpack_list,
                }
            })
            .collect();
        HaloGeometry {
            extent,
            halo_width,
            total,
            exchanges,
        }
    }

    /// Number of cells in the extended grid.
    pub fn total_cells(&self) -> usize {
        self.total.iter().product()
    }

    /// Total elements packed across all 26 directions (the per-variable
    /// message volume of one exchange).
    pub fn pack_volume(&self) -> usize {
        self.exchanges.iter().map(|e| e.pack_list.len()).sum()
    }

    /// Linear index of an owned-region cell given owned-space coordinates.
    pub fn owned_index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.extent[0] && y < self.extent[1] && z < self.extent[2]);
        let h = self.halo_width;
        ((z + h) * self.total[1] + (y + h)) * self.total[0] + (x + h)
    }
}

/// A periodic cartesian decomposition of ranks (`MPI_Cart_create` with
/// periods = true), used to resolve each direction's neighbour rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDecomp {
    /// Ranks per dimension.
    pub dims: [usize; 3],
}

impl RankDecomp {
    /// Create a decomposition; `dims` components must be positive.
    pub fn new(dims: [usize; 3]) -> RankDecomp {
        assert!(dims.iter().all(|&d| d > 0), "decomp dims must be positive");
        RankDecomp { dims }
    }

    /// Total rank count.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Rank id of cartesian coordinates.
    pub fn rank_of(&self, coords: [usize; 3]) -> usize {
        debug_assert!((0..3).all(|d| coords[d] < self.dims[d]));
        (coords[2] * self.dims[1] + coords[1]) * self.dims[0] + coords[0]
    }

    /// Cartesian coordinates of a rank id.
    pub fn coords_of(&self, rank: usize) -> [usize; 3] {
        debug_assert!(rank < self.size());
        [
            rank % self.dims[0],
            (rank / self.dims[0]) % self.dims[1],
            rank / (self.dims[0] * self.dims[1]),
        ]
    }

    /// Neighbour rank in direction `offset`, with periodic wraparound.
    pub fn neighbor(&self, rank: usize, offset: [i32; 3]) -> usize {
        let c = self.coords_of(rank);
        let mut n = [0usize; 3];
        for d in 0..3 {
            let dim = self.dims[d] as i64;
            n[d] = ((c[d] as i64 + offset[d] as i64).rem_euclid(dim)) as usize;
        }
        self.rank_of(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_six_directions() {
        let dirs = directions();
        assert_eq!(dirs.len(), 26);
        assert!(!dirs.contains(&[0, 0, 0]));
        // Each direction's opposite is present.
        for d in &dirs {
            assert!(dirs.contains(&[-d[0], -d[1], -d[2]]));
        }
    }

    #[test]
    fn pack_and_unpack_counts_match_by_direction() {
        let g = HaloGeometry::new([4, 5, 6], 1);
        for (d, e) in g.exchanges.iter().enumerate() {
            // The opposite direction sits at `25 - d` (the exchange relies
            // on it). This rank's unpack list for `offset` must match the
            // neighbour's pack list for `-offset` in size; with equal box
            // extents that equals this rank's own pack list for `-offset`.
            let opposite = &g.exchanges[25 - d];
            assert_eq!(opposite.offset, e.offset.map(|c| -c), "direction {d}");
            assert_eq!(e.unpack_list.len(), opposite.pack_list.len());
        }
    }

    #[test]
    fn face_edge_corner_sizes() {
        let g = HaloGeometry::new([4, 4, 4], 1);
        let size_of = |off: [i32; 3]| {
            g.exchanges
                .iter()
                .find(|e| e.offset == off)
                .unwrap()
                .pack_list
                .len()
        };
        assert_eq!(size_of([1, 0, 0]), 16, "face: 4x4");
        assert_eq!(size_of([1, 1, 0]), 4, "edge: 4x1");
        assert_eq!(size_of([1, 1, 1]), 1, "corner: 1");
    }

    #[test]
    fn pack_lists_are_owned_cells_and_unpack_lists_are_ghosts() {
        let g = HaloGeometry::new([3, 3, 3], 1);
        let h = g.halo_width;
        let in_owned = |idx: usize| {
            let x = idx % g.total[0];
            let y = (idx / g.total[0]) % g.total[1];
            let z = idx / (g.total[0] * g.total[1]);
            x >= h && x < h + g.extent[0] && y >= h && y < h + g.extent[1] && z >= h
                && z < h + g.extent[2]
        };
        for e in &g.exchanges {
            assert!(e.pack_list.iter().all(|&i| in_owned(i)));
            assert!(e.unpack_list.iter().all(|&i| !in_owned(i)));
        }
    }

    #[test]
    fn unpack_lists_are_disjoint_across_directions() {
        let g = HaloGeometry::new([4, 4, 4], 2);
        let mut seen = std::collections::HashSet::new();
        for e in &g.exchanges {
            for &i in &e.unpack_list {
                assert!(seen.insert(i), "ghost cell {i} unpacked twice");
            }
        }
    }

    #[test]
    fn unpack_covers_all_ghost_cells() {
        let g = HaloGeometry::new([4, 4, 4], 1);
        let ghost_cells = g.total_cells() - g.extent.iter().product::<usize>();
        let unpacked: usize = g.exchanges.iter().map(|e| e.unpack_list.len()).sum();
        assert_eq!(unpacked, ghost_cells);
    }

    #[test]
    fn owned_index_addresses_interior() {
        let g = HaloGeometry::new([3, 3, 3], 1);
        assert_eq!(g.owned_index(0, 0, 0), (5 + 1) * 5 + 1);
    }

    #[test]
    fn rank_decomp_roundtrip_and_wrap() {
        let d = RankDecomp::new([2, 3, 2]);
        assert_eq!(d.size(), 12);
        for r in 0..d.size() {
            assert_eq!(d.rank_of(d.coords_of(r)), r);
        }
        // Periodic wrap in x from coordinate 0 going -1.
        let r = d.rank_of([0, 1, 1]);
        let n = d.neighbor(r, [-1, 0, 0]);
        assert_eq!(d.coords_of(n), [1, 1, 1]);
    }

    #[test]
    fn full_exchange_roundtrip_over_simcomm() {
        // 2x1x1 periodic decomposition: each rank's +x neighbour is the
        // other rank. Pack → exchange → unpack, then verify ghosts hold the
        // neighbour's boundary values.
        let decomp = RankDecomp::new([2, 1, 1]);
        let extent = [2, 2, 2];
        let out = crate::run(decomp.size(), |mut comm| {
            let g = HaloGeometry::new(extent, 1);
            let mut grid = vec![-1.0f64; g.total_cells()];
            // Owned cells hold rank*1000 + owned linear id.
            for z in 0..extent[2] {
                for y in 0..extent[1] {
                    for x in 0..extent[0] {
                        let owned_id = (z * extent[1] + y) * extent[0] + x;
                        grid[g.owned_index(x, y, z)] =
                            comm.rank() as f64 * 1000.0 + owned_id as f64;
                    }
                }
            }
            // Post receives, send packs (tag = direction index).
            let mut reqs = Vec::new();
            for (tag, e) in g.exchanges.iter().enumerate() {
                let nbr = decomp.neighbor(comm.rank(), e.offset);
                reqs.push(comm.irecv(nbr, tag as i32));
            }
            for (tag, e) in g.exchanges.iter().enumerate() {
                let nbr = decomp.neighbor(comm.rank(), e.offset);
                // The message the neighbour expects under `tag` is the one
                // for its own direction `tag`, whose source packs with the
                // opposite direction: pack our opposite list.
                let opp = [-e.offset[0], -e.offset[1], -e.offset[2]];
                let src_list = &g
                    .exchanges
                    .iter()
                    .find(|x| x.offset == opp)
                    .unwrap()
                    .pack_list;
                let buf: Vec<f64> = src_list.iter().map(|&i| grid[i]).collect();
                comm.isend(nbr, tag as i32, &buf);
            }
            for (e, req) in g.exchanges.iter().zip(reqs) {
                let buf = comm.wait(req).unwrap();
                assert_eq!(buf.len(), e.unpack_list.len());
                for (&idx, &v) in e.unpack_list.iter().zip(&buf) {
                    grid[idx] = v;
                }
            }
            // Every ghost cell must now be filled.
            grid.iter().all(|&v| v >= 0.0)
        });
        assert!(out.iter().all(|&ok| ok));
    }
}
