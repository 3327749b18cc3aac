"""Storage: the simulated substrate and the real-filesystem transfer layer.

Import from the submodule; the package re-exports nothing, so loading
:mod:`repro.storage.transfer` on the remote dispatch path does not pull in
the simulator or numpy.

:mod:`repro.storage.transfer`
    Real files: rsync-style relative paths (``remote_relpath``),
    ``copy_file`` (one kernel copy per file), ``remove_files``; the
    remote backend imports it.
:mod:`repro.storage.filesystem`
    Simulated Lustre/NVMe (``Filesystem``, ``FileEntry``, ``make_lustre``,
    ``make_nvme``) on :mod:`repro.sim`.
:mod:`repro.storage.rsync`
    rsync cost model (``RsyncCostModel``, ``RsyncStats``,
    ``rsync_process``) over simulated filesystems.
:mod:`repro.storage.staging`
    Pipelined stage-in/process/stage-out (``StagingConfig``,
    ``StagingReport``, ``run_staging_pipeline``).
:mod:`repro.storage.datasets`
    Synthetic file trees (``lognormal_tree``, ``uniform_files``); uses
    numpy.
"""
