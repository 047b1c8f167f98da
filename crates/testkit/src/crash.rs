//! Crash states from a log of file operations, after ALICE (Pillai et al.,
//! OSDI 2014): a test records what a clean run does to a directory as a
//! [`Log`] of [`Op`]s, and [`Log::states`] rebuilds from it every
//! directory a crash may leave.
//!
//! A crash after the log's first `n` operations keeps every operation a
//! sync among them covers — a file's writes and cuts up to its last sync,
//! a directory's links, renames and unlinks up to its last directory sync
//! — and any in-order prefix of the rest, per file for data and per
//! directory for names. A directory's prefix may also leave out one op
//! whose names no later op of it touches: POSIX orders no two names of a
//! directory without a sync between them. The last write a file's prefix
//! keeps may be torn ([`torn_cuts`]). A state is listed once.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::path::Path;

/// A file operation: a path is relative to the recorded directory, a file
/// the number [`Log`] gave it when recording began or its name was made.
#[derive(Debug)]
pub enum Op {
    Link(String, usize),
    /// A file's name, or a directory's with everything under it, goes.
    Unlink(String),
    Rename(String, String),
    Write(usize, u64, Vec<u8>),
    SetLen(usize, u64),
    Sync(usize),
    SyncDir(String),
}

impl Op {
    /// The names it makes or removes, and the directory they live in.
    fn names(&self) -> Option<(Vec<&str>, &str)> {
        let names = match self {
            Op::Link(name, _) | Op::Unlink(name) => vec![name.as_str()],
            Op::Rename(from, to) => vec![from.as_str(), to.as_str()],
            _ => return None,
        };
        let dir = names[0].rsplit_once('/').map_or("", |(dir, _)| dir);
        Some((names, dir))
    }

    /// The file whose bytes it changes.
    fn file(&self) -> Option<usize> {
        match self {
            Op::Write(f, ..) | Op::SetLen(f, _) => Some(*f),
            _ => None,
        }
    }
}

/// Whether name ops `a` and `b` touch a common name.
fn touch(a: &Op, b: &Op) -> bool {
    let (a, b) = (a.names().unwrap().0, b.names().unwrap().0);
    a.iter().any(|x| b.iter().any(|y| over(x, y) || over(y, x)))
}

/// Every file in `dir` and the directories under it, by its path below
/// `dir`.
pub fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for e in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap()) {
        let name = e.file_name().to_string_lossy().into_owned();
        match e.file_type().unwrap().is_dir() {
            true => out.extend(
                tree(&e.path())
                    .into_iter()
                    .map(|(f, b)| (format!("{name}/{f}"), b)),
            ),
            false => drop(out.insert(name, std::fs::read(e.path()).unwrap())),
        }
    }
    out
}

/// What a clean run did to a directory, from what it held to start with.
#[derive(Debug, Default)]
pub struct Log {
    /// What the directory held when recording began: file `i` is
    /// `start[i]`.
    start: Vec<(String, Vec<u8>)>,
    ops: Vec<Op>,
    /// The file each name holds now.
    names: BTreeMap<String, usize>,
}

impl Log {
    /// A log of the changes to `root` from now on: what it holds now is
    /// durable in every state.
    pub fn new(root: &Path) -> Log {
        let start: Vec<_> = tree(root).into_iter().collect();
        let names = start
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), i))
            .collect();
        Log {
            start,
            names,
            ops: Vec::new(),
        }
    }

    /// The file name `name` holds, numbered anew (and the name linked to
    /// it) if `name` holds none.
    pub fn file(&mut self, name: &str) -> usize {
        if let Some(&f) = self.names.get(name) {
            return f;
        }
        let f = self.files();
        self.push(Op::Link(name.to_string(), f));
        f
    }

    /// How many files are numbered.
    fn files(&self) -> usize {
        self.start.len()
            + self
                .ops
                .iter()
                .filter(|op| matches!(op, Op::Link(..)))
                .count()
    }

    /// Logs `op`.
    pub fn push(&mut self, op: Op) {
        match &op {
            Op::Link(name, f) => drop(self.names.insert(name.clone(), *f)),
            Op::Unlink(name) => self.names.retain(|n, _| !over(name, n)),
            Op::Rename(from, to) => {
                let f = self.names.remove(from).unwrap();
                self.names.insert(to.clone(), f);
            }
            _ => {}
        }
        self.ops.push(op);
    }

    /// The ops logged.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Every state a crash may leave, in the order of the first crash that
    /// leaves it. The log's first and last appends of segment records are
    /// torn densely ([`torn_cuts`]) — the last at every byte if
    /// `every_byte_of_last` — every other append at its record boundaries.
    pub fn states(&self, every_byte_of_last: bool) -> Vec<State> {
        let files = self.files();
        let mut data = vec![Vec::new(); files];
        let mut appends = Vec::new();
        for op in &self.ops {
            if let Some(f) = op.file() {
                data[f].push(op);
                if matches!(op, Op::Write(_, _, b) if records(b).is_some()) {
                    appends.push((f, data[f].len()));
                }
            }
        }
        let cuts = |f, k, bytes: &[u8]| match appends.last() == Some(&(f, k)) {
            true if every_byte_of_last => (1..bytes.len()).collect(),
            last => torn_cuts(bytes, last || appends.first() == Some(&(f, k))),
        };
        let (mut done, mut synced) = (vec![0; files], vec![0; files]);
        let mut dirs: BTreeMap<&str, (Vec<&Op>, usize)> = BTreeMap::new();
        let (mut seen, mut out): (HashMap<u64, usize>, Vec<State>) = (HashMap::new(), Vec::new());
        for at in 0..=self.ops.len() {
            // per file: how many of its pending ops a state keeps, the last
            // torn where; per directory: how many, and which it leaves out
            let mut lists: Vec<Vec<Pick>> = Vec::new();
            for f in (0..files).filter(|&f| done[f] > synced[f]) {
                let mut list = vec![Pick::Data(f, synced[f], None)];
                for k in synced[f] + 1..=done[f] {
                    if let Op::Write(_, _, bytes) = data[f][k - 1] {
                        list.extend(
                            cuts(f, k, bytes)
                                .into_iter()
                                .map(|c| Pick::Data(f, k, Some(c))),
                        );
                    }
                    list.push(Pick::Data(f, k, None));
                }
                lists.push(list);
            }
            for (dir, (made, synced)) in dirs.iter().filter(|(_, (m, s))| m.len() > *s) {
                let mut list = Vec::new();
                for k in *synced..=made.len() {
                    list.push(Pick::Names(dir, k, None));
                    let free = |h: &usize| !made[h + 1..k].iter().any(|op| touch(made[*h], op));
                    let holes = (*synced..k.saturating_sub(1)).filter(free);
                    list.extend(holes.map(|h| Pick::Names(dir, k, Some(h))));
                }
                lists.push(list);
            }
            let mut picks: Vec<Vec<Pick>> = vec![Vec::new()];
            for list in &lists {
                let add = picks
                    .iter()
                    .flat_map(|p| list.iter().map(|c| [&p[..], &[*c]].concat()));
                picks = add.collect();
            }
            for pick in picks {
                let files = self.state(at, &data, &done, &pick);
                let mut hash = std::collections::hash_map::DefaultHasher::new();
                files.hash(&mut hash);
                match seen.get(&hash.finish()) {
                    Some(&i) => out[i].last = at,
                    None => {
                        seen.insert(hash.finish(), out.len());
                        let of = self.ops.len();
                        let label = format!("crash after op {at} of {of}, keeping {pick:?}");
                        out.push(State {
                            label,
                            first: at,
                            last: at,
                            files,
                        });
                    }
                }
            }
            let Some(op) = self.ops.get(at) else { break };
            if let Some(f) = op.file() {
                done[f] += 1;
            }
            if let Some((_, dir)) = op.names() {
                dirs.entry(dir).or_default().0.push(op);
            }
            match op {
                Op::Sync(f) => synced[*f] = done[*f],
                Op::SyncDir(dir) => {
                    let (made, synced) = dirs.entry(dir.as_str()).or_default();
                    *synced = made.len();
                }
                _ => {}
            }
        }
        out
    }

    /// The directory a crash after the first `at` ops leaves under `pick`.
    fn state(&self, at: usize, data: &[Vec<&Op>], done: &[usize], pick: &[Pick]) -> Files {
        let start = self.start.iter().enumerate();
        let mut names: BTreeMap<String, usize> = start.map(|(i, (n, _))| (n.clone(), i)).collect();
        let mut counted: HashMap<&str, usize> = HashMap::new();
        for op in &self.ops[..at] {
            let Some((_, dir)) = op.names() else { continue };
            let i = counted.entry(dir).or_default();
            *i += 1;
            let kept = pick.iter().all(|p| match p {
                Pick::Names(d, k, hole) if *d == dir => *i <= *k && *hole != Some(*i - 1),
                _ => true,
            });
            match op {
                _ if !kept => {}
                Op::Link(name, f) => drop(names.insert(name.clone(), *f)),
                Op::Unlink(name) => names.retain(|n, _| !over(name, n)),
                Op::Rename(from, to) => {
                    let f = names.remove(from).unwrap();
                    names.insert(to.clone(), f);
                }
                _ => unreachable!("not a name op"),
            }
        }
        let bytes = |f: usize| {
            let kept = pick.iter().find_map(|p| match p {
                Pick::Data(g, k, cut) if *g == f => Some((*k, *cut)),
                _ => None,
            });
            let (k, cut) = kept.unwrap_or((done[f], None));
            let mut bytes = self.start.get(f).map_or(Vec::new(), |(_, b)| b.clone());
            for (i, op) in data[f][..k].iter().enumerate() {
                match op {
                    Op::Write(_, at, b) => {
                        let b = &b[..cut.filter(|_| i + 1 == k).unwrap_or(b.len())];
                        let (at, end) = (*at as usize, *at as usize + b.len());
                        bytes.resize(bytes.len().max(end), 0);
                        bytes[at..end].copy_from_slice(b);
                    }
                    Op::SetLen(_, len) => bytes.resize(*len as usize, 0),
                    _ => unreachable!("not a data op"),
                }
            }
            bytes
        };
        names
            .into_iter()
            .map(|(name, f)| (name, bytes(f)))
            .collect()
    }
}

/// Whether removing name `name` removes name `n`: it is `n`, or a
/// directory `n` is under.
fn over(name: &str, n: &str) -> bool {
    n == name || n.starts_with(&format!("{name}/"))
}

/// What a crash state keeps of a file's or a directory's ops no sync
/// covered: file `.0`'s first `.1`, the last torn to `.2` bytes; directory
/// `.0`'s first `.1`, but for the `.2`-th.
#[derive(Clone, Copy, Debug)]
enum Pick<'a> {
    Data(usize, usize, Option<usize>),
    Names(&'a str, usize, Option<usize>),
}

/// The byte counts a torn write of `bytes` may keep, strictly between none
/// and all. A run of segment records is cut at every record boundary and a
/// byte either side and, if `dense`, at every byte of each record header
/// and in the first and last 16 bytes of each frame; any other write (a
/// temporary file, a quarantine copy, a spoiled magic) at its half.
pub fn torn_cuts(bytes: &[u8], dense: bool) -> BTreeSet<usize> {
    let mut cuts = BTreeSet::from([bytes.len() / 2]);
    for (start, frame, end) in records(bytes).unwrap_or_default() {
        cuts.extend([
            start.saturating_sub(1),
            start,
            start + 1,
            end - 1,
            end,
            end + 1,
        ]);
        if dense {
            cuts.extend((start..=frame + 16).chain(end - 16..end));
        }
    }
    cuts.retain(|&cut| cut > 0 && cut < bytes.len());
    cuts
}

/// `bytes` as segment records — `"IBR" | name len | name | frame len (u64
/// LE) | CRC (u32)`, then the frame — each as where it starts, where its
/// frame starts and where it ends; `None` if they are not.
fn records(bytes: &[u8]) -> Option<Vec<(usize, usize, usize)>> {
    let (mut out, mut at) = (Vec::new(), 0);
    while at < bytes.len() {
        let len_at = at + 4 + *bytes[at..].strip_prefix(b"IBR")?.first()? as usize;
        let len = u64::from_le_bytes(bytes.get(len_at..len_at + 8)?.try_into().ok()?);
        let end = (len_at + 12).checked_add(usize::try_from(len).ok()?)?;
        (end <= bytes.len() && len >= 16).then_some(())?;
        out.push((at, len_at + 12, end));
        at = end;
    }
    Some(out)
}

/// Each file's path and bytes.
pub type Files = BTreeMap<String, Vec<u8>>;

/// One state a crash may leave.
#[derive(Clone, Debug)]
pub struct State {
    /// The first crash that leaves it, and what it keeps of the ops no sync
    /// covered.
    pub label: String,
    /// How many ops the first and the last crash that leave it came after.
    pub first: usize,
    pub last: usize,
    pub files: Files,
}

impl State {
    /// Writes the state into the empty directory `dir`.
    pub fn materialise(&self, dir: &Path) {
        std::fs::create_dir_all(dir).unwrap();
        for (name, bytes) in &self.files {
            std::fs::create_dir_all(dir.join(name).parent().unwrap()).unwrap();
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    /// A file written, synced, renamed over another and its name synced,
    /// then two names made and left unsynced: a state keeps what a sync
    /// covers, a prefix of the rest — the write torn at its half — and may
    /// leave out the first of the two names but not the link a rename
    /// needs.
    #[test]
    fn a_state_keeps_what_syncs_cover_and_a_prefix_of_the_rest() {
        let dir = TempDir::new("crash-log");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("old"), b"old").unwrap();
        let mut log = Log::new(&dir);
        let f = log.file("tmp");
        log.push(Op::Write(f, 0, b"new".to_vec()));
        log.push(Op::Sync(f));
        log.push(Op::Rename("tmp".into(), "old".into()));
        log.push(Op::SyncDir(String::new()));
        log.file("x");
        log.file("y");
        let files = |names: &[(&str, &str)]| -> Files {
            names
                .iter()
                .map(|(n, b)| (n.to_string(), b.as_bytes().to_vec()))
                .collect()
        };
        let states: Vec<Files> = log.states(false).into_iter().map(|s| s.files).collect();
        let want = [
            files(&[("old", "old")]),
            files(&[("old", "old"), ("tmp", "")]),
            files(&[("old", "old"), ("tmp", "n")]),
            files(&[("old", "old"), ("tmp", "new")]),
            files(&[("old", "new")]),
            files(&[("old", "new"), ("x", "")]),
            files(&[("old", "new"), ("x", ""), ("y", "")]),
            files(&[("old", "new"), ("y", "")]),
        ];
        assert_eq!(states, want);
    }

    /// An append of two records is torn at its record boundaries and a byte
    /// either side, and, dense, through each header and frame end too.
    #[test]
    fn a_torn_append_keeps_a_prefix_cut_where_records_meet() {
        let record = |name: &[u8], frame: usize| {
            let mut r = [b"IBR", &[name.len() as u8][..], name].concat();
            r.extend_from_slice(&(frame as u64).to_le_bytes());
            r.extend_from_slice(&[0; 4]);
            r.extend(std::iter::repeat_n(7u8, frame));
            r
        };
        let bytes = [record(b"a", 40), record(b"bc", 40)].concat();
        assert_eq!(records(&bytes), Some(vec![(0, 17, 57), (57, 75, 115)]));
        let sparse = torn_cuts(&bytes, false);
        assert_eq!(sparse, BTreeSet::from([1, 56, 57, 58, 114]));
        let dense = torn_cuts(&bytes, true);
        let headers_and_ends = (1..=33).chain(41..=91).chain(99..=114);
        assert!(dense.iter().copied().eq(headers_and_ends), "{dense:?}");
        assert_eq!(torn_cuts(b"not records", true), BTreeSet::from([5]));
    }
}
