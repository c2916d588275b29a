package main

import (
	"strings"

	"unidrive/internal/deltasync"
	"unidrive/internal/journal"
	"unidrive/internal/localfs"
	"unidrive/internal/qlock"
	"unidrive/internal/transfer"
)

// class names the layer that owns a cloud request or a local folder
// call. The order is the wall-attribution priority: when calls of
// several classes are in flight at one instant, the instant belongs to
// the lowest-numbered class (a pass waiting on a block transfer and a
// version poll at once is waiting on the transfer).
type class int

const (
	clsBlock      class = iota // transfer: coded blocks under transfer.DefaultBlockDir
	clsMeta                    // deltasync: base, delta tail, frozen chunks, directory listings
	clsVersion                 // deltasync: the version stamp file
	clsLock                    // qlock: flag files and listings under qlock.DefaultLockDir
	clsOther                   // any other cloud path (none at the seed commit)
	clsJournal                 // local: the intent journal file
	clsCheckpoint              // local: core's state checkpoint file
	clsLocalFS                 // local: user files
	clsSelf                    // nothing in flight: core, chunker, erasure, crypto, scheduling
	numClasses
)

// numRemote is the count of classes a cloud request can have.
const numRemote = int(clsOther) + 1

var classNames = [numClasses]string{
	"transfer.block", "deltasync.meta", "deltasync.version", "qlock",
	"cloud.other", "journal", "core.checkpoint", "localfs", "core.self",
}

func (c class) String() string { return classNames[c] }

// versionPath is the stamp file every device polls; deltasync does not
// export the file name, only the directory.
const versionPath = deltasync.DefaultDir + "/version"

// statePath is core's checkpoint file (core keeps the name private; it
// is built from the exported prefix the same way).
const statePath = localfs.StatePrefix + "state.json"

func under(path, dir string) bool {
	return path == dir || strings.HasPrefix(path, dir+"/")
}

// classifyRemote maps a cloud path onto the layer that issued it, from
// the exported on-cloud layout constants.
func classifyRemote(path string) class {
	switch {
	case under(path, transfer.DefaultBlockDir):
		return clsBlock
	case path == versionPath:
		return clsVersion
	case under(path, deltasync.DefaultDir):
		return clsMeta
	case under(path, qlock.DefaultLockDir):
		return clsLock
	}
	return clsOther
}

// classifyLocal maps a sync-folder path onto the layer that touched it.
func classifyLocal(path string) class {
	switch path {
	case journal.Path:
		return clsJournal
	case statePath:
		return clsCheckpoint
	}
	return clsLocalFS
}
