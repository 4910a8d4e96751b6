"""Persistent profile storage: long-term personalisation across sessions.

The adaptive model the paper proposes is not a single-session affair: the
static profile is supposed to carry what the system has learned about a user
*between* sessions, while implicit feedback handles the within-session
dynamics.  The :class:`ProfileStore` provides the missing piece of plumbing —
profiles are kept on disk (one JSON file per user), loaded at session start,
updated by the :class:`~repro.profiles.learning.ProfileLearner` from the
session's evidence, and saved back.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from repro.profiles.profile import UserProfile
from repro.utils.serialization import read_json, write_json

PathLike = Union[str, Path]


class ProfileStore:
    """A directory of user profiles, one JSON file per user."""

    def __init__(self, directory: PathLike) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._cache: Dict[str, UserProfile] = {}

    @property
    def directory(self) -> Path:
        """The directory profiles are stored in."""
        return self._directory

    def _path_for(self, user_id: str) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in user_id)
        return self._directory / f"{safe}.json"

    # -- access ------------------------------------------------------------------

    def has_profile(self, user_id: str) -> bool:
        """True if a profile exists for the user (on disk or cached)."""
        return user_id in self._cache or self._path_for(user_id).exists()

    def load(self, user_id: str) -> UserProfile:
        """Load a user's profile; unknown users raise ``KeyError``."""
        if user_id in self._cache:
            return self._cache[user_id]
        path = self._path_for(user_id)
        if not path.exists():
            raise KeyError(f"no stored profile for user {user_id!r}")
        profile = UserProfile.from_dict(read_json(path))
        self._cache[user_id] = profile
        return profile

    def get_or_create(self, user_id: str) -> UserProfile:
        """Load the user's profile, creating an empty one if none exists."""
        if self.has_profile(user_id):
            return self.load(user_id)
        profile = UserProfile(user_id=user_id)
        self._cache[user_id] = profile
        return profile

    def save(self, profile: UserProfile) -> Path:
        """Persist a profile to disk and return its path."""
        path = self._path_for(profile.user_id)
        write_json(path, profile.as_dict())
        self._cache[profile.user_id] = profile
        return path

    def delete(self, user_id: str) -> bool:
        """Remove a user's profile; returns True if anything was deleted."""
        self._cache.pop(user_id, None)
        path = self._path_for(user_id)
        if path.exists():
            path.unlink()
            return True
        return False

    def user_ids(self) -> List[str]:
        """User ids with a stored profile (from disk, sorted)."""
        ids = {path.stem for path in self._directory.glob("*.json")}
        ids.update(self._cache)
        return sorted(ids)

    def __len__(self) -> int:
        return len(self.user_ids())

    def __contains__(self, user_id: str) -> bool:
        return self.has_profile(user_id)
