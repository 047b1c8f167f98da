//! The [`FileOps`] of a recorded run: the file system itself, and an
//! `ibis_testkit::crash` log of what it does, whose states a crash may
//! leave behind.
#![allow(dead_code)] // each suite uses part of it

use ibis_insitu::{Disk, FileOps};
use ibis_testkit::crash::{Log, Op, State};
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The file system, logging each change it makes under its root.
#[derive(Debug)]
pub struct Recorder {
    root: PathBuf,
    log: Mutex<(Log, Fds)>,
}

/// The file each open descriptor holds.
type Fds = HashMap<i32, usize>;

impl Recorder {
    /// A recorder of the changes to `root` (made if missing) from now on.
    /// It lives as long as the test, as the writers it is given keep it.
    pub fn new(root: &Path) -> &'static Recorder {
        std::fs::create_dir_all(root).unwrap();
        let (root, log) = (root.to_path_buf(), Mutex::new((Log::new(root), Fds::new())));
        Box::leak(Box::new(Recorder { root, log }))
    }

    fn rel(&self, path: &Path) -> String {
        let rel = path.strip_prefix(&self.root).unwrap();
        rel.to_string_lossy().into_owned()
    }

    /// Once `done` succeeded, logs the op `op` makes of it, the log and
    /// the file each descriptor holds.
    fn log<T>(
        &self,
        done: io::Result<T>,
        op: impl FnOnce(&mut Log, &mut Fds, &T) -> Option<Op>,
    ) -> io::Result<T> {
        let done = done?;
        let (log, fds) = &mut *self.log.lock().unwrap();
        if let Some(op) = op(log, fds, &done) {
            log.push(op);
        }
        Ok(done)
    }

    /// How many ops are logged.
    pub fn len(&self) -> usize {
        self.log.lock().unwrap().0.ops().len()
    }

    /// The kind of each op logged after the first `n`.
    pub fn kinds_since(&self, n: usize) -> Vec<String> {
        let kind = |op: &Op| format!("{op:?}").split('(').next().unwrap().to_string();
        let log = self.log.lock().unwrap();
        log.0.ops()[n..].iter().map(kind).collect()
    }

    /// [`Log::states`].
    pub fn states(&self, every_byte_of_last: bool) -> Vec<State> {
        self.log.lock().unwrap().0.states(every_byte_of_last)
    }
}

impl FileOps for Recorder {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<File> {
        let (name, cut) = (self.rel(path), truncate && path.exists());
        self.log(Disk.open(path, truncate), |log, fds, file| {
            let f = log.file(&name);
            fds.insert(file.as_raw_fd(), f);
            cut.then_some(Op::SetLen(f, 0))
        })
    }

    fn write_at(&self, file: &mut File, at: u64, bytes: &[u8]) -> io::Result<()> {
        let (fd, done) = (file.as_raw_fd(), Disk.write_at(file, at, bytes));
        self.log(done, |_, fds, _| {
            Some(Op::Write(fds[&fd], at, bytes.to_vec()))
        })
    }

    fn set_len(&self, file: &File, len: u64) -> io::Result<()> {
        let fd = file.as_raw_fd();
        self.log(Disk.set_len(file, len), |_, fds, _| {
            Some(Op::SetLen(fds[&fd], len))
        })
    }

    fn sync(&self, file: &File) -> io::Result<()> {
        let fd = file.as_raw_fd();
        self.log(Disk.sync(file), |_, fds, _| Some(Op::Sync(fds[&fd])))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let op = Op::SyncDir(self.rel(dir));
        self.log(Disk.sync_dir(dir), |_, _, _| Some(op))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let op = Op::Rename(self.rel(from), self.rel(to));
        self.log(Disk.rename(from, to), |_, _, _| Some(op))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let op = Op::Unlink(self.rel(path));
        self.log(Disk.remove(path), |_, _, _| Some(op))
    }
}
