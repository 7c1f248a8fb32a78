//! Marker-segment level reading and writing (everything outside the
//! entropy-coded data).

use crate::consts::*;
use crate::error::{Error, Result};
use crate::frame::{FrameInfo, ScanComponent, ScanInfo};
use crate::huffman::HuffTable;

/// Writes `FF marker len payload` with the length field covering itself.
pub fn write_segment(out: &mut Vec<u8>, marker: u8, payload: &[u8]) {
    out.push(0xFF);
    out.push(marker);
    let len = payload.len() + 2;
    assert!(len <= 0xFFFF, "segment too long");
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(payload);
}

/// Writes the JFIF APP0 segment.
pub fn write_jfif(out: &mut Vec<u8>) {
    let payload = [b'J', b'F', b'I', b'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0];
    write_segment(out, APP0, &payload);
}

/// Writes one DQT segment containing a single 8-bit table.
pub fn write_dqt(out: &mut Vec<u8>, table_id: u8, qtable_natural: &[u16; 64]) {
    let mut payload = Vec::with_capacity(65);
    payload.push(table_id & 0x0F); // Pq=0 (8-bit), Tq
    for i in 0..64 {
        payload.push(qtable_natural[ZIGZAG[i]] as u8);
    }
    write_segment(out, DQT, &payload);
}

/// Writes a DHT segment for a single table. `class` is 0 (DC) or 1 (AC).
pub fn write_dht(out: &mut Vec<u8>, class: u8, table_id: u8, table: &HuffTable) {
    let mut payload = Vec::with_capacity(17 + table.vals.len());
    payload.push((class << 4) | (table_id & 0x0F));
    payload.extend_from_slice(&table.bits);
    payload.extend_from_slice(&table.vals);
    write_segment(out, DHT, &payload);
}

/// Writes a DRI (define restart interval) segment. `interval` is in MCU
/// units; 0 disables restarts for subsequent scans. Only the test
/// reference encoder writes restart markers.
#[cfg(test)]
pub(crate) fn write_dri(out: &mut Vec<u8>, interval: u16) {
    write_segment(out, DRI, &interval.to_be_bytes());
}

/// Writes the SOF0/SOF2 frame header.
pub fn write_sof(out: &mut Vec<u8>, frame: &FrameInfo) {
    let marker = if frame.progressive { SOF2 } else { SOF0 };
    let mut payload = Vec::with_capacity(8 + frame.components.len() * 3);
    payload.push(8); // precision
    payload.extend_from_slice(&(frame.height as u16).to_be_bytes());
    payload.extend_from_slice(&(frame.width as u16).to_be_bytes());
    payload.push(frame.components.len() as u8);
    for c in &frame.components {
        payload.push(c.id);
        payload.push((c.h << 4) | c.v);
        payload.push(c.tq);
    }
    write_segment(out, marker, &payload);
}

/// Writes an SOS header (not the entropy data).
pub fn write_sos(out: &mut Vec<u8>, frame: &FrameInfo, scan: &ScanInfo) {
    let mut payload = Vec::with_capacity(4 + scan.components.len() * 2);
    payload.push(scan.components.len() as u8);
    for sc in &scan.components {
        payload.push(frame.components[sc.comp_index].id);
        payload.push((sc.dc_table << 4) | sc.ac_table);
    }
    payload.push(scan.ss);
    payload.push(scan.se);
    payload.push((scan.ah << 4) | scan.al);
    write_segment(out, SOS, &payload);
}

/// A segment yielded by [`SegmentReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment<'a> {
    /// Start of image.
    Soi,
    /// End of image.
    Eoi,
    /// A marker with payload (length bytes stripped).
    Marker {
        /// The marker byte (second byte of FFxx).
        marker: u8,
        /// Segment payload without the two length bytes.
        payload: &'a [u8],
    },
    /// SOS header payload followed by the offset where entropy data starts.
    Sos {
        /// SOS payload (without length bytes).
        payload: &'a [u8],
        /// Offset of the first entropy-coded byte in the input.
        entropy_start: usize,
    },
}

/// Streaming reader over marker segments. Entropy data after an SOS must be
/// skipped by the caller via [`SegmentReader::skip_entropy`].
#[derive(Debug)]
pub struct SegmentReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SegmentReader<'a> {
    /// Creates a reader positioned at the start of the stream.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reads the next segment.
    pub fn next_segment(&mut self) -> Result<Segment<'a>> {
        // Tolerate fill bytes (repeated 0xFF) before a marker.
        loop {
            let b = *self.data.get(self.pos).ok_or(Error::UnexpectedEof)?;
            if b != 0xFF {
                return Err(Error::CorruptData(format!(
                    "expected marker at offset {}, found {b:#04x}",
                    self.pos
                )));
            }
            let mut p = self.pos + 1;
            while self.data.get(p) == Some(&0xFF) {
                p += 1;
            }
            let m = *self.data.get(p).ok_or(Error::UnexpectedEof)?;
            self.pos = p + 1;
            match m {
                0x00 => {
                    return Err(Error::CorruptData("stuffed byte outside entropy data".into()))
                }
                SOI => return Ok(Segment::Soi),
                EOI => return Ok(Segment::Eoi),
                m if is_rst(m) => continue, // stray RST: skip
                SOS => {
                    let (payload, end) = self.read_length_payload(m)?;
                    self.pos = end;
                    return Ok(Segment::Sos { payload, entropy_start: end });
                }
                _ => {
                    let (payload, end) = self.read_length_payload(m)?;
                    self.pos = end;
                    return Ok(Segment::Marker { marker: m, payload });
                }
            }
        }
    }

    fn read_length_payload(&self, marker: u8) -> Result<(&'a [u8], usize)> {
        let at = self.pos;
        if at + 2 > self.data.len() {
            return Err(Error::UnexpectedEof);
        }
        let len = u16::from_be_bytes([self.data[at], self.data[at + 1]]) as usize;
        if len < 2 || at + len > self.data.len() {
            return Err(Error::BadSegmentLength { marker });
        }
        Ok((&self.data[at + 2..at + len], at + len))
    }

    /// Advances past entropy-coded data to the next real marker, returning
    /// the entropy byte range. Uses the word-at-a-time 0xFF scanner shared
    /// with the entropy bit-reader ([`crate::bitio::find_ff`]), so scan
    /// splitting walks stuffing-free runs at memory speed.
    pub fn skip_entropy(&mut self) -> (usize, usize) {
        let start = self.pos;
        let mut p = self.pos;
        loop {
            p = crate::bitio::find_ff(self.data, p);
            if p + 1 >= self.data.len() {
                self.pos = self.data.len();
                return (start, self.data.len());
            }
            let m = self.data[p + 1];
            if m != 0x00 && !is_rst(m) {
                self.pos = p;
                return (start, p);
            }
            p += 2; // stuffed 0xFF 0x00 or restart marker: still entropy data
        }
    }
}

/// Parses a DQT payload, which may hold multiple tables. Returns
/// `(table_id, natural-order table)` pairs.
pub fn parse_dqt(payload: &[u8]) -> Result<Vec<(u8, [u16; 64])>> {
    let mut out = Vec::new();
    let mut p = 0usize;
    while p < payload.len() {
        let pq_tq = payload[p];
        let pq = pq_tq >> 4;
        let tq = pq_tq & 0x0F;
        p += 1;
        if tq > 3 {
            return Err(Error::BadQuant(format!("table id {tq}")));
        }
        let mut table = [0u16; 64];
        match pq {
            0 => {
                if p + 64 > payload.len() {
                    return Err(Error::BadQuant("short 8-bit table".into()));
                }
                for i in 0..64 {
                    table[ZIGZAG[i]] = u16::from(payload[p + i]);
                }
                p += 64;
            }
            1 => {
                if p + 128 > payload.len() {
                    return Err(Error::BadQuant("short 16-bit table".into()));
                }
                for i in 0..64 {
                    table[ZIGZAG[i]] =
                        u16::from_be_bytes([payload[p + 2 * i], payload[p + 2 * i + 1]]);
                }
                p += 128;
            }
            _ => return Err(Error::BadQuant(format!("precision {pq}"))),
        }
        if table.contains(&0) {
            return Err(Error::BadQuant("zero quantizer".into()));
        }
        out.push((tq, table));
    }
    Ok(out)
}

/// Parses a DHT payload into `(class, table_id, table)` triples.
pub fn parse_dht(payload: &[u8]) -> Result<Vec<(u8, u8, HuffTable)>> {
    let mut out = Vec::new();
    let mut p = 0usize;
    while p < payload.len() {
        if p + 17 > payload.len() {
            return Err(Error::BadHuffman("short DHT".into()));
        }
        let tc_th = payload[p];
        let class = tc_th >> 4;
        let id = tc_th & 0x0F;
        if class > 1 || id > 3 {
            return Err(Error::BadHuffman(format!("class {class} id {id}")));
        }
        let mut bits = [0u8; 16];
        bits.copy_from_slice(&payload[p + 1..p + 17]);
        let total: usize = bits.iter().map(|&b| b as usize).sum();
        p += 17;
        if p + total > payload.len() {
            return Err(Error::BadHuffman("short DHT values".into()));
        }
        let vals = payload[p..p + total].to_vec();
        p += total;
        out.push((class, id, HuffTable::new(bits, vals)?));
    }
    Ok(out)
}

/// Parses an SOF payload into a [`FrameInfo`].
pub fn parse_sof(payload: &[u8], progressive: bool) -> Result<FrameInfo> {
    if payload.len() < 6 {
        return Err(Error::UnsupportedFrame("short SOF".into()));
    }
    let precision = payload[0];
    if precision != 8 {
        return Err(Error::UnsupportedFrame(format!("precision {precision}")));
    }
    let height = u32::from(u16::from_be_bytes([payload[1], payload[2]]));
    let width = u32::from(u16::from_be_bytes([payload[3], payload[4]]));
    let n = payload[5] as usize;
    if payload.len() != 6 + n * 3 {
        return Err(Error::UnsupportedFrame("SOF length mismatch".into()));
    }
    let mut comps = Vec::with_capacity(n);
    for i in 0..n {
        let id = payload[6 + i * 3];
        let hv = payload[7 + i * 3];
        let tq = payload[8 + i * 3];
        comps.push((id, hv >> 4, hv & 0x0F, tq));
    }
    FrameInfo::from_components(width, height, progressive, comps)
}

/// Parses an SOS payload against a frame into a [`ScanInfo`].
pub fn parse_sos(payload: &[u8], frame: &FrameInfo) -> Result<ScanInfo> {
    if payload.is_empty() {
        return Err(Error::BadScan("empty SOS".into()));
    }
    let n = payload[0] as usize;
    if payload.len() != 1 + n * 2 + 3 {
        return Err(Error::BadScan("SOS length mismatch".into()));
    }
    let mut components = Vec::with_capacity(n);
    for i in 0..n {
        let cid = payload[1 + i * 2];
        let tables = payload[2 + i * 2];
        let comp_index = frame
            .components
            .iter()
            .position(|c| c.id == cid)
            .ok_or_else(|| Error::BadScan(format!("unknown component id {cid}")))?;
        components.push(ScanComponent {
            comp_index,
            dc_table: tables >> 4,
            ac_table: tables & 0x0F,
        });
    }
    let ss = payload[1 + n * 2];
    let se = payload[2 + n * 2];
    let a = payload[3 + n * 2];
    let scan = ScanInfo { components, ss, se, ah: a >> 4, al: a & 0x0F };
    scan.validate(frame)?;
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Subsampling;

    #[test]
    fn segment_roundtrip() {
        let mut buf = vec![0xFF, SOI];
        write_segment(&mut buf, COM, b"hello");
        buf.extend_from_slice(&[0xFF, EOI]);
        let mut r = SegmentReader::new(&buf);
        assert_eq!(r.next_segment().unwrap(), Segment::Soi);
        match r.next_segment().unwrap() {
            Segment::Marker { marker, payload } => {
                assert_eq!(marker, COM);
                assert_eq!(payload, b"hello");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.next_segment().unwrap(), Segment::Eoi);
    }

    #[test]
    fn dqt_roundtrip() {
        let table = crate::consts::scale_qtable(&STD_LUMA_QTABLE, 85);
        let mut buf = Vec::new();
        write_dqt(&mut buf, 1, &table);
        let mut r = SegmentReader::new(&buf);
        let seg = r.next_segment().unwrap();
        let Segment::Marker { marker, payload } = seg else { panic!() };
        assert_eq!(marker, DQT);
        let parsed = parse_dqt(payload).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 1);
        assert_eq!(parsed[0].1, table);
    }

    #[test]
    fn dht_roundtrip() {
        let t = HuffTable::std_ac_chroma();
        let mut buf = Vec::new();
        write_dht(&mut buf, 1, 1, &t);
        let mut r = SegmentReader::new(&buf);
        let Segment::Marker { payload, .. } = r.next_segment().unwrap() else { panic!() };
        let parsed = parse_dht(payload).unwrap();
        assert_eq!(parsed, vec![(1u8, 1u8, t)]);
    }

    #[test]
    fn sof_roundtrip() {
        let f = FrameInfo::for_encode(640, 480, 3, Subsampling::S420, true).unwrap();
        let mut buf = Vec::new();
        write_sof(&mut buf, &f);
        let mut r = SegmentReader::new(&buf);
        let Segment::Marker { marker, payload } = r.next_segment().unwrap() else { panic!() };
        assert_eq!(marker, SOF2);
        let parsed = parse_sof(payload, true).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn sos_roundtrip() {
        let f = FrameInfo::for_encode(64, 64, 3, Subsampling::S420, true).unwrap();
        let scan = ScanInfo {
            components: vec![ScanComponent { comp_index: 1, dc_table: 0, ac_table: 1 }],
            ss: 1,
            se: 63,
            ah: 0,
            al: 1,
        };
        let mut buf = Vec::new();
        write_sos(&mut buf, &f, &scan);
        let mut r = SegmentReader::new(&buf);
        let Segment::Sos { payload, .. } = r.next_segment().unwrap() else { panic!() };
        let parsed = parse_sos(payload, &f).unwrap();
        assert_eq!(parsed, scan);
    }

    #[test]
    fn skip_entropy_stops_at_marker_not_stuffing() {
        let data = [0x12, 0x34, 0xFF, 0x00, 0x56, 0xFF, 0xD9];
        let mut r = SegmentReader::new(&data);
        let (s, e) = r.skip_entropy();
        assert_eq!((s, e), (0, 5));
        assert_eq!(r.next_segment().unwrap(), Segment::Eoi);
    }

    #[test]
    fn rejects_truncated_segment() {
        let buf = vec![0xFF, COM, 0x00, 0x10, b'x'];
        let mut r = SegmentReader::new(&buf);
        assert!(matches!(r.next_segment(), Err(Error::BadSegmentLength { .. })));
    }

    #[test]
    fn tolerates_fill_bytes() {
        let buf = vec![0xFF, 0xFF, 0xFF, SOI];
        let mut r = SegmentReader::new(&buf);
        assert_eq!(r.next_segment().unwrap(), Segment::Soi);
    }
}
