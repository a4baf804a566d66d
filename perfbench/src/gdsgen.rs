//! Seeded input generation: design crops and GDSII files, built during
//! set-up so the program under test receives only files.

use cardopc_geometry::{BBox, Point, Polygon, SplitMix64};
use cardopc_layout::{large_tile, Clip, DesignKind, WINDOW_LAYER};
use cardopc_runtime::TilingConfig;

/// Edge of a generated design tile, nm.
const DESIGN_TILE: f64 = 30_000.0;
/// Right-hand strip of a design tile that crops avoid, nm.
const RIGHT_MARGIN: f64 = 2_000.0;

/// A seeded `width`×`height` nm crop of a seeded `aes` design tile (the
/// densest synthetic design). With `whole_only`, shapes straddling the
/// window are dropped so every target lies inside it; otherwise they are
/// kept whole, as the command line's `--crop` does.
pub fn aes_crop(rng: &mut SplitMix64, width: f64, height: f64, whole_only: bool) -> Clip {
    let index = rng.range_usize(0, DesignKind::Aes.paper_tile_count());
    let tile = large_tile(DesignKind::Aes, index);
    // The generator leaves up to a wire length free at each track's end,
    // so crops keep clear of the tile's right margin.
    let origin = Point::new(
        rng.range_f64(0.0, DESIGN_TILE - RIGHT_MARGIN - width)
            .round(),
        rng.range_f64(0.0, DESIGN_TILE - height).round(),
    );
    let name = format!("aes{index}_{}_{}", origin.x, origin.y);
    if whole_only {
        tile.crop(origin, width, height, name)
    } else {
        tile.crop_intersecting(origin, width, height, name)
    }
}

/// Minimal GDSII stream encoder (1 nm per database unit) with the one
/// element the library writer lacks: AREF.
struct Stream {
    out: Vec<u8>,
}

mod rt {
    pub const HEADER: u8 = 0x00;
    pub const BGNLIB: u8 = 0x01;
    pub const LIBNAME: u8 = 0x02;
    pub const UNITS: u8 = 0x03;
    pub const ENDLIB: u8 = 0x04;
    pub const BGNSTR: u8 = 0x05;
    pub const STRNAME: u8 = 0x06;
    pub const ENDSTR: u8 = 0x07;
    pub const BOUNDARY: u8 = 0x08;
    pub const AREF: u8 = 0x0B;
    pub const LAYER: u8 = 0x0D;
    pub const DATATYPE: u8 = 0x0E;
    pub const XY: u8 = 0x10;
    pub const ENDEL: u8 = 0x11;
    pub const SNAME: u8 = 0x12;
    pub const COLROW: u8 = 0x13;
}

const NO_DATA: u8 = 0x00;
const I16: u8 = 0x02;
const I32: u8 = 0x03;
const REAL8: u8 = 0x05;
const ASCII: u8 = 0x06;

impl Stream {
    fn new(lib: &str) -> Stream {
        let mut s = Stream { out: Vec::new() };
        s.i16s(rt::HEADER, &[600]);
        s.i16s(rt::BGNLIB, &[0; 12]);
        s.ascii(rt::LIBNAME, lib);
        let mut units = Vec::new();
        for v in [1e-3, 1e-9] {
            units.extend_from_slice(&cardopc_gds::encode_real8(v).expect("finite unit"));
        }
        s.record(rt::UNITS, REAL8, &units);
        s
    }

    fn record(&mut self, rtype: u8, dtype: u8, data: &[u8]) {
        let len = u16::try_from(data.len() + 4).expect("record fits 64 KiB");
        self.out.extend_from_slice(&len.to_be_bytes());
        self.out.push(rtype);
        self.out.push(dtype);
        self.out.extend_from_slice(data);
    }

    fn i16s(&mut self, rtype: u8, values: &[i16]) {
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_be_bytes()).collect();
        self.record(rtype, I16, &data);
    }

    fn xy(&mut self, points: &[(i32, i32)]) {
        let data: Vec<u8> = points
            .iter()
            .flat_map(|&(x, y)| x.to_be_bytes().into_iter().chain(y.to_be_bytes()))
            .collect();
        self.record(rt::XY, I32, &data);
    }

    fn ascii(&mut self, rtype: u8, text: &str) {
        let mut data = text.as_bytes().to_vec();
        if data.len() % 2 == 1 {
            data.push(0);
        }
        self.record(rtype, ASCII, &data);
    }

    fn begin(&mut self, name: &str) {
        self.i16s(rt::BGNSTR, &[0; 12]);
        self.ascii(rt::STRNAME, name);
    }

    fn end(&mut self) {
        self.record(rt::ENDSTR, NO_DATA, &[]);
    }

    /// An axis-aligned rectangle (integer nm corners).
    fn rect(&mut self, layer: i16, x0: i32, y0: i32, x1: i32, y1: i32) {
        self.record(rt::BOUNDARY, NO_DATA, &[]);
        self.i16s(rt::LAYER, &[layer]);
        self.i16s(rt::DATATYPE, &[0]);
        self.xy(&[(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]);
        self.record(rt::ENDEL, NO_DATA, &[]);
    }

    fn polygon(&mut self, layer: i16, poly: &Polygon) {
        let mut pts: Vec<(i32, i32)> = poly
            .vertices()
            .iter()
            .map(|p| (p.x.round() as i32, p.y.round() as i32))
            .collect();
        pts.push(pts[0]);
        self.record(rt::BOUNDARY, NO_DATA, &[]);
        self.i16s(rt::LAYER, &[layer]);
        self.i16s(rt::DATATYPE, &[0]);
        self.xy(&pts);
        self.record(rt::ENDEL, NO_DATA, &[]);
    }

    /// A `cols`×`rows` array of `cell` at `origin` with the given pitch.
    fn aref(&mut self, cell: &str, cols: i16, rows: i16, origin: (i32, i32), pitch: i32) {
        self.record(rt::AREF, NO_DATA, &[]);
        self.ascii(rt::SNAME, cell);
        self.i16s(rt::COLROW, &[cols, rows]);
        let (x, y) = origin;
        self.xy(&[
            (x, y),
            (x + cols as i32 * pitch, y),
            (x, y + rows as i32 * pitch),
        ]);
        self.record(rt::ENDEL, NO_DATA, &[]);
    }

    fn finish(mut self) -> Vec<u8> {
        self.record(rt::ENDLIB, NO_DATA, &[]);
        self.out
    }
}

/// Geometry of the ECO design.
pub struct EcoLayout {
    /// Chip width and height, nm.
    pub width: f64,
    pub height: f64,
    /// Width of the AREF array region at the left, nm.
    pub array_width: f64,
    /// Array cell pitch, nm (divides the tile size, so array tiles are
    /// congruent).
    pub cell_pitch: f64,
}

/// The GDS pair of one ECO: the design before and after a seeded handful
/// of routing wires were shortened.
pub struct EcoDesign {
    pub before: Vec<u8>,
    pub after: Vec<u8>,
}

/// Cell contents: two wire stubs on alternating tracks and a via, each at
/// least 70 nm from every shape of the neighbouring cells.
const CELL_RECTS: [(i32, i32, i32, i32); 3] = [
    (35, 35, 335, 105),
    (175, 315, 475, 385),
    (400, 175, 470, 245),
];

/// Tiles (by grid position) whose halo window meets `bbox`.
fn touched_tiles(bbox: &BBox, layout: &EcoLayout, tiling: &TilingConfig) -> Vec<(i64, i64)> {
    let (t, h) = (tiling.tile_size, tiling.halo);
    let nx = (layout.width / t).ceil() as i64;
    let ny = (layout.height / t).ceil() as i64;
    let span = |lo: f64, hi: f64, n: i64| {
        let first = (((lo - h) / t).floor() as i64).max(0);
        let last = (((hi + h) / t).ceil() as i64 - 1).min(n - 1);
        first..=last
    };
    let mut out = Vec::new();
    for ty in span(bbox.min.y, bbox.max.y, ny) {
        for tx in span(bbox.min.x, bbox.max.x, nx) {
            out.push((tx, ty));
        }
    }
    out
}

/// Depth-first search, in `order`, for `size` items whose `cost` is
/// exactly `target` (costs only grow as items are added).
fn find_group(
    order: &[usize],
    size: usize,
    group: &mut Vec<usize>,
    cost: &dyn Fn(&[usize]) -> usize,
    target: usize,
) -> Option<Vec<usize>> {
    if group.len() == size {
        return (cost(group) == target).then(|| group.clone());
    }
    for (k, &i) in order.iter().enumerate() {
        group.push(i);
        if cost(group) <= target {
            if let Some(found) = find_group(&order[k + 1..], size, group, cost, target) {
                return Some(found);
            }
        }
        group.pop();
    }
    None
}

/// Builds the ECO design: an AREF array of one cell on the left, a seeded
/// crop of `aes` routing on the right, and the clip-window marker. The
/// ECO edits `edits` seeded wires whose halo windows together touch
/// exactly `touched` tiles, so every seed re-corrects the same amount.
pub fn eco_design(
    rng: &mut SplitMix64,
    layout: &EcoLayout,
    tiling: &TilingConfig,
    edits: usize,
    touched: usize,
) -> Result<EcoDesign, String> {
    let routing_width = layout.width - layout.array_width;
    // Routing: a seeded aes crop with its wires (rectangles) cut to the
    // routing region, kept at least 70 nm clear of the array's last
    // column; stubs shorter than the generator's 350 nm minimum go.
    let crop = aes_crop(rng, routing_width, layout.height, false);
    let wires: Vec<Polygon> = crop
        .targets()
        .iter()
        .filter_map(|w| {
            let b = w.bbox();
            let (x0, x1) = (b.min.x.max(70.0), b.max.x.min(routing_width));
            (x1 - x0 >= 350.0).then(|| {
                Polygon::rect(
                    Point::new(x0 + layout.array_width, b.min.y),
                    Point::new(x1 + layout.array_width, b.max.y),
                )
            })
        })
        .collect();

    // The ECO shortens `edits` distinct seeded wires by 70 nm at their
    // right end (every wire here is at least 350 nm long): the first group,
    // in a seeded order, whose halo windows touch exactly `touched` tiles.
    // Only wires whose halo windows stay clear of the array qualify, so
    // the re-corrected tiles are all routing tiles.
    let mut order: Vec<usize> = (0..wires.len())
        .filter(|&i| wires[i].bbox().min.x - tiling.halo >= layout.array_width)
        .collect();
    rng.shuffle(&mut order);
    let tiles_of: Vec<Vec<(i64, i64)>> = wires
        .iter()
        .map(|w| touched_tiles(&w.bbox(), layout, tiling))
        .collect();
    let edited = find_group(
        &order,
        edits,
        &mut Vec::new(),
        &|group: &[usize]| {
            let mut tiles: Vec<(i64, i64)> =
                group.iter().flat_map(|&i| tiles_of[i].clone()).collect();
            tiles.sort_unstable();
            tiles.dedup();
            tiles.len()
        },
        touched,
    )
    .ok_or_else(|| format!("no {edits} wires touch exactly {touched} tiles"))?;
    let after_wires: Vec<Polygon> = wires
        .iter()
        .enumerate()
        .map(|(i, w)| {
            if edited.contains(&i) {
                let b = w.bbox();
                Polygon::rect(b.min, Point::new(b.max.x - 70.0, b.max.y))
            } else {
                w.clone()
            }
        })
        .collect();

    let write = |wires: &[Polygon]| -> Vec<u8> {
        let mut s = Stream::new("ECO");
        s.begin("CELL");
        for &(x0, y0, x1, y1) in &CELL_RECTS {
            s.rect(cardopc_layout::TARGET_LAYER, x0, y0, x1, y1);
        }
        s.end();
        s.begin("TOP");
        s.rect(
            WINDOW_LAYER,
            0,
            0,
            layout.width as i32,
            layout.height as i32,
        );
        let pitch = layout.cell_pitch as i32;
        s.aref(
            "CELL",
            (layout.array_width / layout.cell_pitch) as i16,
            (layout.height / layout.cell_pitch) as i16,
            (0, 0),
            pitch,
        );
        for w in wires {
            s.polygon(cardopc_layout::TARGET_LAYER, w);
        }
        s.end();
        s.finish()
    };
    Ok(EcoDesign {
        before: write(&wires),
        after: write(&after_wires),
    })
}

/// Writes a clip as a GDS file under its window convention.
pub fn write_clip(clip: &Clip, path: &std::path::Path) -> Result<(), String> {
    let bytes = cardopc_layout::write_clip_gds(clip, cardopc_layout::TARGET_LAYER, 0)?;
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}
